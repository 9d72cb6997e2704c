#include "exec/plan.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/thread_pool.h"

namespace dkb::exec {

void PlanNode::EnableProfiling() {
  if (profile_ == nullptr) profile_ = std::make_unique<Profile>();
  // Children() exposes const pointers for EXPLAIN rendering; profiling
  // mutates bookkeeping only, never operator results.
  for (const PlanNode* child : Children()) {
    const_cast<PlanNode*>(child)->EnableProfiling();
  }
}

namespace {

/// Concatenates the output schemas of two join inputs.
Schema ConcatSchemas(const Schema& a, const Schema& b) {
  std::vector<Column> cols = a.columns();
  cols.insert(cols.end(), b.columns().begin(), b.columns().end());
  return Schema(std::move(cols));
}

/// Narrows *batch to the rows passing `filter` by composing a selection
/// vector (no row copies). No-op for a null filter.
void ApplyFilterToBatch(const BoundExpr* filter, RowBatch* batch,
                        std::vector<uint32_t>* scratch) {
  if (filter == nullptr || batch->size() == 0) return;
  scratch->resize(batch->size());
  std::iota(scratch->begin(), scratch->end(), 0u);
  filter->FilterSelection(*batch, scratch);
  batch->ComposeSelection(*scratch);
}

/// Per-shard index instance matching the shard-0 template: index definitions
/// are uniform across shards (Catalog::CreateIndex installs on every shard),
/// so a name lookup on shard `s` always finds the counterpart.
const Index* ShardIndex(const ScanSource& source, size_t s,
                        const Index* tmpl) {
  if (s == 0) return tmpl;
  for (const auto& idx : source.shard(s).indexes()) {
    if (idx->name() == tmpl->name()) return idx.get();
  }
  return nullptr;  // unreachable under the uniform-index invariant
}

/// True when every probe of `index` can be routed to one home shard: the
/// index key is exactly the partition column, so a key's hash decides the
/// only shard that can hold matching rows.
bool RoutableOnPartitionColumn(const ScanSource& source, const Index* index) {
  return source.shard_count() > 1 && index->key_columns().size() == 1 &&
         index->key_columns()[0] == source.partition_column();
}

}  // namespace

// ---------------------------------------------------------------------------
// SeqScan
// ---------------------------------------------------------------------------

SeqScanNode::SeqScanNode(const ScanSource* source, BoundExprPtr filter,
                         ExecStats* stats, Epoch epoch)
    : source_(source),
      filter_(std::move(filter)),
      stats_(stats),
      epoch_(epoch) {
  set_schema(source->schema());
}

Status SeqScanNode::OpenImpl() {
  shard_ = 0;
  cursor_ = 0;
  pos_ = 0;
  rows_.clear();
  materialized_ = false;

  const ParallelismPolicy& tuning = GlobalParallelismPolicy();
  const size_t nshards = source_->shard_count();
  size_t total_slots = 0;
  for (size_t sh = 0; sh < nshards; ++sh) {
    total_slots += source_->ScanEnd(sh) - source_->ScanBegin(sh);
  }
  ThreadPool& pool = GlobalThreadPool();
  if (total_slots < tuning.seq_scan_min_rows || pool.num_threads() == 0) {
    return Status::OK();
  }

  // Shard × morsel grid: each cell batch-filters one row range of one shard
  // into a private buffer; buffers concatenate in grid order (shard-major,
  // then row order), matching the serial path exactly.
  materialized_ = true;
  const size_t morsel = std::max<size_t>(tuning.morsel_rows, 1);
  struct Cell {
    size_t shard;
    RowId lo;
    RowId hi;
  };
  std::vector<Cell> grid;
  for (size_t sh = 0; sh < nshards; ++sh) {
    const RowId begin = source_->ScanBegin(sh);
    const RowId end = source_->ScanEnd(sh);
    const size_t cells = (end - begin + morsel - 1) / morsel;
    if (cells > 0) source_->shard(sh).NoteMorsels(cells);
    for (size_t m = 0; m < cells; ++m) {
      grid.push_back(Cell{sh, begin + m * morsel,
                          std::min<RowId>(end, begin + (m + 1) * morsel)});
    }
  }
  StatAdd(stats_->morsels, static_cast<int64_t>(grid.size()));
  CountMorsels(static_cast<int64_t>(grid.size()));
  std::vector<std::vector<Tuple>> buffers(grid.size());
  std::atomic<int64_t> scanned{0};
  pool.ParallelFor(0, grid.size(), [&](size_t g) {
    const Cell& cell = grid[g];
    const Table& shard = source_->shard(cell.shard);
    std::vector<Tuple>& buf = buffers[g];
    RowBatch batch;
    batch.Reset(shard.schema().num_columns());
    int64_t local = 0;
    for (RowId rid = cell.lo; rid < cell.hi; ++rid) {
      if (!shard.VisibleAt(rid, epoch_)) continue;
      ++local;
      batch.AppendRow(shard.Get(rid));
    }
    std::vector<uint32_t> sel;
    ApplyFilterToBatch(filter_.get(), &batch, &sel);
    buf.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      buf.push_back(batch.MaterializeTuple(i));
    }
    scanned.fetch_add(local, std::memory_order_relaxed);
  });
  StatAdd(stats_->rows_scanned, scanned.load(std::memory_order_relaxed));
  size_t total = 0;
  for (const auto& buf : buffers) total += buf.size();
  rows_.reserve(total);
  for (auto& buf : buffers) {
    for (Tuple& t : buf) rows_.push_back(std::move(t));
  }
  return Status::OK();
}

Result<bool> SeqScanNode::NextBatchImpl(RowBatch* out) {
  if (materialized_) {
    out->Reset(output_width());
    while (pos_ < rows_.size() && !out->full()) {
      out->AppendRow(std::move(rows_[pos_++]));
    }
    return !out->empty();
  }
  while (true) {
    cursor_ = source_->ScanBatch(shard_, cursor_, out, epoch_);
    if (out->physical_size() == 0) {
      // Shard exhausted; move to the next one.
      if (shard_ + 1 >= source_->shard_count()) return false;
      ++shard_;
      cursor_ = 0;
      continue;
    }
    StatAdd(stats_->rows_scanned,
            static_cast<int64_t>(out->physical_size()));
    ApplyFilterToBatch(filter_.get(), out, &sel_scratch_);
    if (!out->empty()) return true;
    // Whole window filtered out; pull the next one.
  }
}

void SeqScanNode::CloseImpl() {
  rows_.clear();
  materialized_ = false;
}

// ---------------------------------------------------------------------------
// IndexScan
// ---------------------------------------------------------------------------

IndexScanNode::IndexScanNode(const ScanSource* source, const Index* index,
                             std::vector<BoundExprPtr> keys,
                             BoundExprPtr filter, ExecStats* stats,
                             Epoch epoch)
    : source_(source),
      index_(index),
      routed_(RoutableOnPartitionColumn(*source, index)),
      key_exprs_(std::move(keys)),
      keys_(key_exprs_.size()),
      filter_(std::move(filter)),
      stats_(stats),
      epoch_(epoch) {
  set_schema(source->schema());
}

Status IndexScanNode::OpenImpl() {
  static const Tuple kNoRow;
  for (size_t k = 0; k < key_exprs_.size(); ++k) {
    keys_[k].assign(1, key_exprs_[k]->Evaluate(kNoRow));
  }
  key_pos_ = 0;
  shard_pos_ = 0;
  buffer_shard_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
  return Status::OK();
}

bool IndexScanNode::NextProbe() {
  const size_t nshards = source_->shard_count();
  while (key_pos_ < keys_.size()) {
    if (shard_pos_ >= nshards) {
      ++key_pos_;
      shard_pos_ = 0;
      continue;
    }
    const Tuple& key = keys_[key_pos_];
    size_t sh = shard_pos_;
    if (routed_) {
      // Single-column key on the partition column: only one shard can hold
      // matches, so skip the other probes for this key.
      sh = source_->ShardOfValue(key[0]);
      shard_pos_ = nshards;
    } else {
      ++shard_pos_;
    }
    buffer_.clear();
    buffer_pos_ = 0;
    buffer_shard_ = sh;
    StatAdd(stats_->index_probes);
    const Table& shard = source_->shard(sh);
    shard.ProbeIndex(ShardIndex(*source_, sh, index_), key, &buffer_);
    return true;
  }
  return false;
}

Result<bool> IndexScanNode::NextBatchImpl(RowBatch* out) {
  while (true) {
    out->Reset(output_width());
    while (!out->full()) {
      if (buffer_pos_ < buffer_.size()) {
        RowId rid = buffer_[buffer_pos_++];
        const Table& shard = source_->shard(buffer_shard_);
        if (!shard.VisibleAt(rid, epoch_)) continue;
        StatAdd(stats_->index_rows);
        out->AppendRow(shard.Get(rid));
        continue;
      }
      if (!NextProbe()) break;
    }
    if (out->physical_size() == 0) return false;
    ApplyFilterToBatch(filter_.get(), out, &sel_scratch_);
    if (!out->empty()) return true;
  }
}

// ---------------------------------------------------------------------------
// IndexRangeScan
// ---------------------------------------------------------------------------

IndexRangeScanNode::IndexRangeScanNode(const ScanSource* source,
                                       const OrderedIndex* index,
                                       BoundExprPtr lo, BoundExprPtr hi,
                                       BoundExprPtr filter, ExecStats* stats,
                                       Epoch epoch)
    : source_(source),
      index_(index),
      lo_expr_(std::move(lo)),
      hi_expr_(std::move(hi)),
      filter_(std::move(filter)),
      stats_(stats),
      epoch_(epoch) {
  set_schema(source->schema());
}

void IndexRangeScanNode::ProbeShard() {
  StatAdd(stats_->index_probes);
  // Same index definition on every shard, so the same index kind too.
  const auto* index = static_cast<const OrderedIndex*>(
      ShardIndex(*source_, shard_, index_));
  source_->shard(shard_).ProbeIndexRange(
      index, lo_expr_ != nullptr ? &lo_key_ : nullptr,
      hi_expr_ != nullptr ? &hi_key_ : nullptr, &buffer_);
}

Status IndexRangeScanNode::OpenImpl() {
  static const Tuple kNoRow;
  if (lo_expr_ != nullptr) lo_key_.assign(1, lo_expr_->Evaluate(kNoRow));
  if (hi_expr_ != nullptr) hi_key_.assign(1, hi_expr_->Evaluate(kNoRow));
  shard_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
  ProbeShard();
  return Status::OK();
}

Result<bool> IndexRangeScanNode::NextBatchImpl(RowBatch* out) {
  while (true) {
    out->Reset(output_width());
    while (!out->full()) {
      if (buffer_pos_ < buffer_.size()) {
        RowId rid = buffer_[buffer_pos_++];
        const Table& shard = source_->shard(shard_);
        if (!shard.VisibleAt(rid, epoch_)) continue;
        StatAdd(stats_->index_rows);
        out->AppendRow(shard.Get(rid));
        continue;
      }
      if (shard_ + 1 >= source_->shard_count()) break;
      ++shard_;
      buffer_.clear();
      buffer_pos_ = 0;
      ProbeShard();
    }
    if (out->physical_size() == 0) return false;
    ApplyFilterToBatch(filter_.get(), out, &sel_scratch_);
    if (!out->empty()) return true;
  }
}

// ---------------------------------------------------------------------------
// Filter / Project
// ---------------------------------------------------------------------------

FilterNode::FilterNode(PlanNodePtr child, BoundExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  set_schema(child_->output_schema());
}

Result<bool> FilterNode::NextBatchImpl(RowBatch* out) {
  while (true) {
    DKB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    ApplyFilterToBatch(predicate_.get(), out, &sel_scratch_);
    if (!out->empty()) return true;
  }
}

ProjectNode::ProjectNode(PlanNodePtr child, std::vector<BoundExprPtr> exprs,
                         Schema schema)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  set_schema(std::move(schema));
}

Result<bool> ProjectNode::NextBatchImpl(RowBatch* out) {
  out->Reset(exprs_.size());
  DKB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(&in_batch_));
  if (!more) return false;
  idx_scratch_.resize(in_batch_.size());
  std::iota(idx_scratch_.begin(), idx_scratch_.end(), 0u);
  for (size_t c = 0; c < exprs_.size(); ++c) {
    exprs_[c]->EvaluateColumn(in_batch_, idx_scratch_, &out->column(c));
  }
  return true;
}

// ---------------------------------------------------------------------------
// NestedLoopJoin
// ---------------------------------------------------------------------------

NestedLoopJoinNode::NestedLoopJoinNode(PlanNodePtr outer, PlanNodePtr inner,
                                       BoundExprPtr predicate,
                                       ExecStats* stats)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      predicate_(std::move(predicate)),
      stats_(stats) {
  set_schema(ConcatSchemas(outer_->output_schema(), inner_->output_schema()));
}

Status NestedLoopJoinNode::OpenImpl() {
  outer_batch_.Reset(0);
  outer_pos_ = 0;
  outer_valid_ = false;
  outer_done_ = false;
  return outer_->Open();
}

Result<bool> NestedLoopJoinNode::NextBatchImpl(RowBatch* out) {
  while (true) {
    out->Reset(output_width());
    while (!out->full() && !outer_done_) {
      if (!outer_valid_) {
        if (outer_pos_ >= outer_batch_.size()) {
          DKB_ASSIGN_OR_RETURN(bool more, outer_->NextBatch(&outer_batch_));
          if (!more) {
            outer_done_ = true;
            break;
          }
          outer_pos_ = 0;
          continue;
        }
        outer_batch_.CopyRowTo(outer_pos_++, &outer_row_);
        outer_valid_ = true;
        DKB_RETURN_IF_ERROR(inner_->Open());
      }
      DKB_ASSIGN_OR_RETURN(bool more, inner_->NextBatch(&inner_batch_));
      if (!more) {
        outer_valid_ = false;
        continue;
      }
      for (size_t i = 0; i < inner_batch_.size(); ++i) {
        out->AppendConcat(outer_row_, inner_batch_, i);
      }
    }
    if (out->physical_size() == 0) return false;
    ApplyFilterToBatch(predicate_.get(), out, &sel_scratch_);
    if (!out->empty()) {
      StatAdd(stats_->join_output_rows, static_cast<int64_t>(out->size()));
      return true;
    }
  }
}

void NestedLoopJoinNode::CloseImpl() {
  outer_->Close();
  inner_->Close();
}

// ---------------------------------------------------------------------------
// HashJoin
// ---------------------------------------------------------------------------

HashJoinNode::HashJoinNode(PlanNodePtr left, PlanNodePtr right,
                           std::vector<size_t> left_keys,
                           std::vector<size_t> right_keys,
                           BoundExprPtr residual, ExecStats* stats)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      stats_(stats) {
  set_schema(ConcatSchemas(left_->output_schema(), right_->output_schema()));
}

Status HashJoinNode::OpenImpl() {
  parts_.clear();
  left_batch_.Reset(0);
  left_pos_ = 0;
  left_done_ = false;
  matches_.clear();
  match_pos_ = 0;

  // Drain the build side (materialized: build keys must outlive the probe).
  DKB_RETURN_IF_ERROR(right_->Open());
  std::vector<Tuple> build;
  RowBatch rb;
  while (true) {
    auto more = right_->NextBatch(&rb);
    if (!more.ok()) return more.status();
    if (!*more) break;
    for (size_t i = 0; i < rb.size(); ++i) {
      build.push_back(rb.MaterializeTuple(i));
    }
  }
  right_->Close();

  auto key_of = [this](const Tuple& r) {
    Tuple key;
    key.reserve(right_keys_.size());
    for (size_t k : right_keys_) key.push_back(r[k]);
    return key;
  };

  ThreadPool& pool = GlobalThreadPool();
  const ParallelismPolicy& tuning = GlobalParallelismPolicy();
  if (build.size() < tuning.hash_build_min_rows || pool.num_threads() == 0) {
    parts_.resize(1);
    for (Tuple& r : build) parts_[0].emplace(key_of(r), std::move(r));
    return left_->Open();
  }

  // Parallel partitioned build: hash every key, then let each partition
  // insert its own rows — disjoint ownership, no locks.
  const size_t num_parts = 2 * (pool.num_threads() + 1);
  StatAdd(stats_->morsels, static_cast<int64_t>(num_parts));
  CountMorsels(static_cast<int64_t>(num_parts));
  std::vector<size_t> hashes(build.size());
  pool.ParallelFor(
      0, build.size(),
      [&](size_t i) { hashes[i] = TupleHash{}(key_of(build[i])); },
      /*min_chunk=*/1024);
  parts_.resize(num_parts);
  pool.ParallelFor(0, num_parts, [&](size_t p) {
    auto& part = parts_[p];
    for (size_t i = 0; i < build.size(); ++i) {
      if (hashes[i] % num_parts != p) continue;
      part.emplace(key_of(build[i]), build[i]);
    }
  });
  return left_->Open();
}

Result<bool> HashJoinNode::NextBatchImpl(RowBatch* out) {
  while (true) {
    out->Reset(output_width());
    while (!out->full()) {
      if (match_pos_ < matches_.size()) {
        out->AppendConcat(left_row_, *matches_[match_pos_++]);
        continue;
      }
      if (left_pos_ >= left_batch_.size()) {
        if (left_done_) break;
        DKB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(&left_batch_));
        if (!more) {
          left_done_ = true;
          break;
        }
        left_pos_ = 0;
        continue;
      }
      left_batch_.CopyRowTo(left_pos_++, &left_row_);
      key_scratch_.clear();
      for (size_t k : left_keys_) key_scratch_.push_back(left_row_[k]);
      matches_.clear();
      match_pos_ = 0;
      const auto& part =
          parts_.size() == 1 ? parts_[0]
                             : parts_[TupleHash{}(key_scratch_) % parts_.size()];
      auto [lo, hi] = part.equal_range(key_scratch_);
      for (auto it = lo; it != hi; ++it) matches_.push_back(&it->second);
    }
    if (out->physical_size() == 0) return false;
    ApplyFilterToBatch(residual_.get(), out, &sel_scratch_);
    if (!out->empty()) {
      StatAdd(stats_->join_output_rows, static_cast<int64_t>(out->size()));
      return true;
    }
  }
}

void HashJoinNode::CloseImpl() {
  left_->Close();
  right_->Close();
  parts_.clear();
  matches_.clear();
}

// ---------------------------------------------------------------------------
// IndexNLJoin
// ---------------------------------------------------------------------------

IndexNLJoinNode::IndexNLJoinNode(PlanNodePtr outer, const ScanSource* inner,
                                 const Index* index,
                                 std::vector<size_t> outer_key_slots,
                                 BoundExprPtr residual, ExecStats* stats,
                                 Epoch epoch)
    : outer_(std::move(outer)),
      inner_(inner),
      index_(index),
      routed_(RoutableOnPartitionColumn(*inner, index)),
      outer_key_slots_(std::move(outer_key_slots)),
      residual_(std::move(residual)),
      stats_(stats),
      epoch_(epoch) {
  set_schema(ConcatSchemas(outer_->output_schema(), inner->schema()));
}

Status IndexNLJoinNode::OpenImpl() {
  outer_batch_.Reset(0);
  outer_pos_ = 0;
  outer_done_ = false;
  // Start with the probe grid exhausted so the first iteration pulls an
  // outer row.
  shard_pos_ = inner_->shard_count();
  buffer_shard_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
  return outer_->Open();
}

bool IndexNLJoinNode::ProbeNextShard() {
  const size_t nshards = inner_->shard_count();
  if (shard_pos_ >= nshards) return false;
  size_t sh = shard_pos_;
  if (routed_) {
    sh = inner_->ShardOfValue(key_scratch_[0]);
    shard_pos_ = nshards;  // one probe per key
  } else {
    ++shard_pos_;
  }
  buffer_.clear();
  buffer_pos_ = 0;
  buffer_shard_ = sh;
  StatAdd(stats_->index_probes);
  const Table& shard = inner_->shard(sh);
  shard.ProbeIndex(ShardIndex(*inner_, sh, index_), key_scratch_, &buffer_);
  return true;
}

Result<bool> IndexNLJoinNode::NextBatchImpl(RowBatch* out) {
  while (true) {
    out->Reset(output_width());
    while (!out->full()) {
      if (buffer_pos_ < buffer_.size()) {
        RowId rid = buffer_[buffer_pos_++];
        const Table& shard = inner_->shard(buffer_shard_);
        if (!shard.VisibleAt(rid, epoch_)) continue;
        StatAdd(stats_->index_rows);
        out->AppendConcat(outer_row_, shard.Get(rid));
        continue;
      }
      if (ProbeNextShard()) continue;
      if (outer_pos_ >= outer_batch_.size()) {
        if (outer_done_) break;
        DKB_ASSIGN_OR_RETURN(bool more, outer_->NextBatch(&outer_batch_));
        if (!more) {
          outer_done_ = true;
          break;
        }
        outer_pos_ = 0;
        continue;
      }
      outer_batch_.CopyRowTo(outer_pos_++, &outer_row_);
      key_scratch_.clear();
      for (size_t s : outer_key_slots_) key_scratch_.push_back(outer_row_[s]);
      shard_pos_ = 0;
      buffer_.clear();
      buffer_pos_ = 0;
    }
    if (out->physical_size() == 0) return false;
    ApplyFilterToBatch(residual_.get(), out, &sel_scratch_);
    if (!out->empty()) {
      StatAdd(stats_->join_output_rows, static_cast<int64_t>(out->size()));
      return true;
    }
  }
}

void IndexNLJoinNode::CloseImpl() { outer_->Close(); }

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

DistinctNode::DistinctNode(PlanNodePtr child) : child_(std::move(child)) {
  set_schema(child_->output_schema());
}

Status DistinctNode::OpenImpl() {
  seen_.clear();
  return child_->Open();
}

Result<bool> DistinctNode::NextBatchImpl(RowBatch* out) {
  while (true) {
    DKB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    sel_scratch_.clear();
    const size_t n = out->size();
    for (size_t i = 0; i < n; ++i) {
      if (seen_.insert(out->MaterializeTuple(i)).second) {
        sel_scratch_.push_back(static_cast<uint32_t>(i));
      }
    }
    if (!sel_scratch_.empty()) {
      out->ComposeSelection(sel_scratch_);
      return true;
    }
  }
}

// ---------------------------------------------------------------------------
// SetOp
// ---------------------------------------------------------------------------

SetOpNode::SetOpNode(PlanNodePtr left, PlanNodePtr right, SetOpKind kind)
    : left_(std::move(left)), right_(std::move(right)), kind_(kind) {
  set_schema(left_->output_schema());
}

Status SetOpNode::OpenImpl() {
  left_done_ = false;
  right_set_.clear();
  emitted_.clear();
  DKB_RETURN_IF_ERROR(left_->Open());
  if (kind_ == SetOpKind::kExcept || kind_ == SetOpKind::kIntersect) {
    DKB_RETURN_IF_ERROR(right_->Open());
    RowBatch rb;
    while (true) {
      auto more = right_->NextBatch(&rb);
      if (!more.ok()) return more.status();
      if (!*more) break;
      for (size_t i = 0; i < rb.size(); ++i) {
        right_set_.insert(rb.MaterializeTuple(i));
      }
    }
    right_->Close();
  }
  return Status::OK();
}

void SetOpNode::FilterBatch(RowBatch* batch) {
  sel_scratch_.clear();
  const size_t n = batch->size();
  for (size_t i = 0; i < n; ++i) {
    Tuple t = batch->MaterializeTuple(i);
    if (kind_ == SetOpKind::kExcept && right_set_.count(t) > 0) continue;
    if (kind_ == SetOpKind::kIntersect && right_set_.count(t) == 0) continue;
    if (emitted_.insert(std::move(t)).second) {
      sel_scratch_.push_back(static_cast<uint32_t>(i));
    }
  }
  batch->ComposeSelection(sel_scratch_);
}

Result<bool> SetOpNode::NextBatchImpl(RowBatch* out) {
  if (kind_ == SetOpKind::kUnionAll) {
    if (!left_done_) {
      DKB_ASSIGN_OR_RETURN(bool more, left_->NextBatch(out));
      if (more) return true;
      left_done_ = true;
      DKB_RETURN_IF_ERROR(right_->Open());
    }
    return right_->NextBatch(out);
  }
  // kUnion / kExcept / kIntersect: stream batches through the membership
  // filter (emitted_ dedup; EXCEPT/INTERSECT also consult right_set_).
  while (true) {
    bool more = false;
    if (!left_done_) {
      DKB_ASSIGN_OR_RETURN(more, left_->NextBatch(out));
      if (!more) {
        left_done_ = true;
        if (kind_ == SetOpKind::kUnion) {
          DKB_RETURN_IF_ERROR(right_->Open());
        }
        continue;
      }
    } else {
      if (kind_ != SetOpKind::kUnion) return false;
      DKB_ASSIGN_OR_RETURN(more, right_->NextBatch(out));
      if (!more) return false;
    }
    FilterBatch(out);
    if (!out->empty()) return true;
  }
}

void SetOpNode::CloseImpl() {
  left_->Close();
  right_->Close();
  right_set_.clear();
  emitted_.clear();
}

// ---------------------------------------------------------------------------
// Sort / Limit / Count
// ---------------------------------------------------------------------------

SortNode::SortNode(PlanNodePtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  set_schema(child_->output_schema());
}

Status SortNode::OpenImpl() {
  rows_.clear();
  pos_ = 0;
  DKB_RETURN_IF_ERROR(child_->Open());
  RowBatch rb;
  while (true) {
    auto more = child_->NextBatch(&rb);
    if (!more.ok()) return more.status();
    if (!*more) break;
    rows_.reserve(rows_.size() + rb.size());
    for (size_t i = 0; i < rb.size(); ++i) {
      rows_.push_back(rb.MaterializeTuple(i));
    }
  }
  child_->Close();
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Tuple& a, const Tuple& b) {
                     for (const SortKey& k : keys_) {
                       if (a[k.slot] == b[k.slot]) continue;
                       bool lt = a[k.slot] < b[k.slot];
                       return k.ascending ? lt : !lt;
                     }
                     return false;
                   });
  return Status::OK();
}

Result<bool> SortNode::NextBatchImpl(RowBatch* out) {
  out->Reset(output_width());
  while (pos_ < rows_.size() && !out->full()) {
    out->AppendRow(std::move(rows_[pos_++]));
  }
  return !out->empty();
}

void SortNode::CloseImpl() {
  rows_.clear();
  child_->Close();
}

LimitNode::LimitNode(PlanNodePtr child, size_t limit)
    : child_(std::move(child)), limit_(limit) {
  set_schema(child_->output_schema());
}

Status LimitNode::OpenImpl() {
  produced_ = 0;
  return child_->Open();
}

Result<bool> LimitNode::NextBatchImpl(RowBatch* out) {
  if (produced_ >= limit_) return false;
  DKB_ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
  if (!more) return false;
  out->Truncate(limit_ - produced_);
  produced_ += out->size();
  return !out->empty();
}

AggregateNode::AggregateNode(PlanNodePtr child,
                             std::vector<BoundExprPtr> group_keys,
                             std::vector<AggSpec> specs,
                             std::vector<OutputRef> outputs, Schema schema)
    : child_(std::move(child)),
      group_keys_(std::move(group_keys)),
      specs_(std::move(specs)),
      outputs_(std::move(outputs)) {
  set_schema(std::move(schema));
}

Status AggregateNode::OpenImpl() {
  groups_.clear();
  pos_ = 0;
  std::unordered_map<Tuple, size_t, TupleHash> index;
  DKB_RETURN_IF_ERROR(child_->Open());
  RowBatch batch;
  std::vector<uint32_t> idx;
  // Per-batch column buffers: group keys and aggregate arguments are
  // evaluated vectorized; only the accumulator update runs per row.
  std::vector<std::vector<Value>> key_cols(group_keys_.size());
  std::vector<std::vector<Value>> arg_cols(specs_.size());
  Tuple key;
  while (true) {
    auto more = child_->NextBatch(&batch);
    if (!more.ok()) return more.status();
    if (!*more) break;
    const size_t n = batch.size();
    idx.resize(n);
    std::iota(idx.begin(), idx.end(), 0u);
    for (size_t k = 0; k < group_keys_.size(); ++k) {
      group_keys_[k]->EvaluateColumn(batch, idx, &key_cols[k]);
    }
    for (size_t s = 0; s < specs_.size(); ++s) {
      if (specs_[s].arg != nullptr) {
        specs_[s].arg->EvaluateColumn(batch, idx, &arg_cols[s]);
      }
    }
    for (size_t r = 0; r < n; ++r) {
      key.clear();
      for (size_t k = 0; k < key_cols.size(); ++k) {
        key.push_back(key_cols[k][r]);
      }
      auto [it, inserted] = index.emplace(key, groups_.size());
      if (inserted) {
        groups_.emplace_back(key, std::vector<Acc>(specs_.size()));
      }
      std::vector<Acc>& accs = groups_[it->second].second;
      for (size_t s = 0; s < specs_.size(); ++s) {
        const AggSpec& spec = specs_[s];
        Acc& acc = accs[s];
        if (spec.fn == sql::AggFn::kCountStar) {
          ++acc.count;
          continue;
        }
        const Value& v = arg_cols[s][r];
        if (v.is_null()) continue;
        switch (spec.fn) {
          case sql::AggFn::kCount:
            ++acc.count;
            break;
          case sql::AggFn::kSum:
            if (!v.is_int()) {
              return Status::TypeError("SUM over non-integer value " +
                                       v.ToString());
            }
            acc.sum += v.as_int();
            break;
          case sql::AggFn::kMin:
            if (!acc.has_value || v < acc.min) acc.min = v;
            break;
          case sql::AggFn::kMax:
            if (!acc.has_value || acc.max < v) acc.max = v;
            break;
          default:
            return Status::Internal("bad aggregate function");
        }
        acc.has_value = true;
      }
    }
  }
  child_->Close();
  // Global aggregation over an empty input still yields one row.
  if (group_keys_.empty() && groups_.empty()) {
    groups_.emplace_back(Tuple{}, std::vector<Acc>(specs_.size()));
  }
  return Status::OK();
}

Result<bool> AggregateNode::NextBatchImpl(RowBatch* out) {
  out->Reset(output_width());
  Tuple row;
  while (pos_ < groups_.size() && !out->full()) {
    const auto& [key, accs] = groups_[pos_++];
    row.clear();
    row.reserve(outputs_.size());
    for (const OutputRef& ref : outputs_) {
      if (!ref.is_agg) {
        row.push_back(key[ref.index]);
        continue;
      }
      const Acc& acc = accs[ref.index];
      switch (specs_[ref.index].fn) {
        case sql::AggFn::kCountStar:
        case sql::AggFn::kCount:
          row.push_back(Value(acc.count));
          break;
        case sql::AggFn::kSum:
          row.push_back(Value(acc.sum));
          break;
        case sql::AggFn::kMin:
          row.push_back(acc.has_value ? acc.min : Value::Null());
          break;
        case sql::AggFn::kMax:
          row.push_back(acc.has_value ? acc.max : Value::Null());
          break;
        default:
          return Status::Internal("bad aggregate function");
      }
    }
    out->AppendRow(row);
  }
  return !out->empty();
}

void AggregateNode::CloseImpl() {
  groups_.clear();
  child_->Close();
}

}  // namespace dkb::exec
