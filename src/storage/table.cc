#include "storage/table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace dkb {

Table::~Table() {
  // Slots, segments and chunks are all reached in row order, so each kind
  // is a prefix: destroy and free only that prefix.
  for (RowId rid = 0; rid < constructed_; ++rid) SlotRef(rid).~Slot();
  const size_t segments = segments_allocated_.load(std::memory_order_relaxed);
  for (size_t seg = 0; seg < segments; ++seg) {
    delete dir_[seg / kChunkSegments]
        .load(std::memory_order_relaxed)
        ->segs[seg % kChunkSegments]
        .load(std::memory_order_relaxed);
  }
  const size_t chunks = chunks_allocated_.load(std::memory_order_relaxed);
  for (size_t c = 0; c < chunks; ++c) {
    delete dir_[c].load(std::memory_order_relaxed);
  }
}

Status Table::ValidateTuple(const Tuple& tuple) const {
  if (tuple.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) + " does not match " +
        name_ + " schema arity " + std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i].is_null()) continue;
    if (tuple[i].type() != schema_.column(i).type) {
      return Status::TypeError("column " + schema_.column(i).name + " of " +
                               name_ + " expects " +
                               DataTypeName(schema_.column(i).type) +
                               " but got " + DataTypeName(tuple[i].type()));
    }
  }
  return Status::OK();
}

Table::Slot& Table::EnsureSlot(RowId rid) {
  const size_t seg = rid / kSegmentRows;
  const size_t ci = seg / kChunkSegments;
  if (ci >= kMaxChunks) {
    std::fprintf(stderr, "dkb: table %s exceeded %zu rows\n", name_.c_str(),
                 kMaxChunks * kChunkSegments * kSegmentRows);
    std::abort();
  }
  Chunk* chunk = dir_[ci].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    ++chunks_allocated_;
    dir_[ci].store(chunk, std::memory_order_release);
  }
  std::atomic<Segment*>& sptr = chunk->segs[seg % kChunkSegments];
  Segment* segment = sptr.load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new Segment;  // raw: slots are constructed below, one by one
    ++segments_allocated_;
    sptr.store(segment, std::memory_order_release);
  }
  Slot* slot = segment->slot(rid % kSegmentRows);
  if (rid == constructed_) {  // rows arrive in order: rid <= constructed_
    new (slot) Slot();
    ++constructed_;
  }
  return *slot;
}

RowId Table::InsertRow(Tuple tuple) {
  // Intern before index maintenance so index keys share the cheap
  // representation with the stored tuple.
  for (auto& v : tuple) v.InternInPlace();
  const RowId rid = size_.load(std::memory_order_relaxed);
  Slot& slot = EnsureSlot(rid);
  slot.tuple = std::move(tuple);
  slot.begin.store(versioned() ? epochs_->write_epoch() : 0,
                   std::memory_order_relaxed);
  slot.end.store(kNeverEpoch, std::memory_order_relaxed);
  for (auto& index : indexes_) {
    index->Insert(index->MakeKey(slot.tuple), rid);
  }
  // Publish: everything above (directory pointers, the slot, index entries)
  // is sequenced before this release store, so a reader that observes the
  // new size sees a fully initialized slot.
  size_.store(rid + 1, std::memory_order_release);
  live_count_.fetch_add(1, std::memory_order_relaxed);
  return rid;
}

Result<RowId> Table::Insert(const Tuple& tuple) {
  DKB_RETURN_IF_ERROR(ValidateTuple(tuple));
  return InsertUnchecked(tuple);
}

Result<RowId> Table::Insert(Tuple&& tuple) {
  DKB_RETURN_IF_ERROR(ValidateTuple(tuple));
  return InsertUnchecked(std::move(tuple));
}

RowId Table::InsertUnchecked(Tuple tuple) {
  if (versioned()) {
    WriterLock lock(index_mu_);
    return InsertRow(std::move(tuple));
  }
  return InsertRow(std::move(tuple));
}

Status Table::AppendBatch(const RowBatch& batch) {
  if (batch.num_columns() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "batch arity " + std::to_string(batch.num_columns()) +
        " does not match " + name_ + " schema arity " +
        std::to_string(schema_.num_columns()));
  }
  const size_t n = batch.size();
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const DataType want = schema_.column(c).type;
    for (size_t i = 0; i < n; ++i) {
      const Value& v = batch.At(i, c);
      if (v.is_null()) continue;
      if (v.type() != want) {
        return Status::TypeError("column " + schema_.column(c).name + " of " +
                                 name_ + " expects " + DataTypeName(want) +
                                 " but got " + DataTypeName(v.type()));
      }
    }
  }
  if (versioned()) {
    WriterLock lock(index_mu_);
    for (size_t i = 0; i < n; ++i) InsertRow(batch.MaterializeTuple(i));
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) InsertRow(batch.MaterializeTuple(i));
  return Status::OK();
}

RowId Table::ScanRange(RowId cursor, RowId end, RowBatch* out,
                       Epoch at) const {
  out->Reset(schema_.num_columns());
  const RowId n = std::min(end, num_slots());
  while (cursor < n && !out->full()) {
    const Slot& slot = SlotRef(cursor);
    if (EpochVisible(slot.begin.load(std::memory_order_relaxed),
                     slot.end.load(std::memory_order_acquire), at)) {
      out->AppendRow(slot.tuple);
    }
    ++cursor;
  }
  if (!out->empty()) {
    scan_batches_.fetch_add(1, std::memory_order_relaxed);
  }
  return cursor;
}

bool Table::Delete(RowId rid) {
  if (!IsLive(rid)) return false;
  Slot& slot = SlotRef(rid);
  if (versioned()) {
    // Index entries stay until Vacuum: a reader pinned before this delete
    // must still find the row through its indexes.
    slot.end.store(epochs_->write_epoch(), std::memory_order_release);
  } else {
    for (auto& index : indexes_) {
      index->Erase(index->MakeKey(slot.tuple), rid);
    }
    slot.end.store(0, std::memory_order_release);
  }
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void Table::Clear() {
  const RowId n = num_slots();
  if (versioned()) {
    // Mass delete, not a physical reset: pinned readers keep their view and
    // Vacuum reclaims payloads and index entries once nobody can see them.
    const Epoch we = epochs_->write_epoch();
    for (RowId rid = 0; rid < n; ++rid) {
      Slot& slot = SlotRef(rid);
      if (slot.end.load(std::memory_order_relaxed) == kNeverEpoch) {
        slot.end.store(we, std::memory_order_release);
      }
    }
    live_count_.store(0, std::memory_order_relaxed);
    return;
  }
  // Unversioned: physical reset. Segments stay allocated so the LFP's
  // per-iteration temp churn does not round-trip the allocator.
  for (RowId rid = 0; rid < n; ++rid) {
    Slot& slot = SlotRef(rid);
    slot.tuple = Tuple{};
    slot.begin.store(0, std::memory_order_relaxed);
    slot.end.store(kNeverEpoch, std::memory_order_relaxed);
  }
  size_.store(0, std::memory_order_release);
  live_count_.store(0, std::memory_order_relaxed);
  // Rebuild empty indexes preserving their definitions.
  for (auto& index : indexes_) {
    std::unique_ptr<Index> fresh;
    if (index->kind() == IndexKind::kHash) {
      fresh = std::make_unique<HashIndex>(index->name(), index->key_columns());
    } else {
      fresh =
          std::make_unique<OrderedIndex>(index->name(), index->key_columns());
    }
    index = std::move(fresh);
  }
}

size_t Table::Vacuum(Epoch min_pinned) {
  if (!versioned()) return 0;
  WriterLock lock(index_mu_);
  const RowId n = num_slots();
  size_t reclaimed = 0;
  for (RowId rid = 0; rid < n; ++rid) {
    Slot& slot = SlotRef(rid);
    if (slot.begin.load(std::memory_order_relaxed) == kNeverEpoch) {
      continue;  // already reclaimed
    }
    const Epoch end = slot.end.load(std::memory_order_acquire);
    if (end == kNeverEpoch || end > min_pinned) continue;
    // Invisible at every pinned epoch and at latest: erase the deferred
    // index entries (key extracted before the payload goes away), free the
    // payload, and mark the slot reclaimed.
    for (auto& index : indexes_) {
      index->Erase(index->MakeKey(slot.tuple), rid);
    }
    slot.tuple = Tuple{};
    slot.begin.store(kNeverEpoch, std::memory_order_relaxed);
    ++reclaimed;
  }
  return reclaimed;
}

size_t Table::ApproxBytes() const {
  return sizeof(Table) +
         segments_allocated_.load(std::memory_order_relaxed) *
             sizeof(Segment) +
         chunks_allocated_.load(std::memory_order_relaxed) * sizeof(Chunk) +
         num_slots() * schema_.num_columns() * sizeof(Value);
}

Status Table::AddIndex(std::unique_ptr<Index> index) {
  if (versioned()) {
    WriterLock lock(index_mu_);
    return AddIndexLocked(std::move(index));
  }
  return AddIndexLocked(std::move(index));
}

Status Table::AddIndexLocked(std::unique_ptr<Index> index) {
  for (const auto& existing : indexes_) {
    if (existing->name() == index->name()) {
      return Status::AlreadyExists("index " + index->name() +
                                   " already exists on " + name_);
    }
  }
  const RowId n = num_slots();
  for (RowId rid = 0; rid < n; ++rid) {
    const Slot& slot = SlotRef(rid);
    if (versioned()) {
      // Index every non-reclaimed slot: a dead row may still be visible to
      // a pinned reader, who must be able to probe it.
      if (slot.begin.load(std::memory_order_relaxed) == kNeverEpoch) continue;
    } else {
      if (slot.end.load(std::memory_order_relaxed) != kNeverEpoch) continue;
    }
    index->Insert(index->MakeKey(slot.tuple), rid);
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

const Index* Table::FindIndexOn(
    const std::vector<size_t>& key_columns) const {
  if (versioned()) {
    ReaderLock lock(index_mu_);
    return FindIndexOnLocked(key_columns);
  }
  return FindIndexOnLocked(key_columns);
}

const Index* Table::FindIndexOnLocked(
    const std::vector<size_t>& key_columns) const {
  std::vector<size_t> want = key_columns;
  std::sort(want.begin(), want.end());
  for (const auto& index : indexes_) {
    std::vector<size_t> have = index->key_columns();
    std::sort(have.begin(), have.end());
    if (have == want) return index.get();
  }
  return nullptr;
}

void Table::ProbeIndex(const Index* index, const Tuple& key,
                       std::vector<RowId>* out) const {
  if (versioned()) {
    ReaderLock lock(index_mu_);
    index->Probe(key, out);
    return;
  }
  index->Probe(key, out);
}

void Table::ProbeIndexRange(const OrderedIndex* index, const Tuple* lo,
                            const Tuple* hi, std::vector<RowId>* out) const {
  if (versioned()) {
    ReaderLock lock(index_mu_);
    index->RangeOpt(lo, hi, out);
    return;
  }
  index->RangeOpt(lo, hi, out);
}

}  // namespace dkb
