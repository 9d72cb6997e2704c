#ifndef DKB_EXEC_PLAN_H_
#define DKB_EXEC_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parallelism.h"
#include "common/row_batch.h"
#include "common/status.h"
#include "common/trace.h"
#include "exec/expr.h"
#include "storage/scan_source.h"
#include "storage/table.h"

namespace dkb::exec {

/// Counters exposed by Database::stats(); used by tests to assert access-path
/// choices (e.g. that the relevant-rule extraction query really uses the
/// index on reachablepreds) and by benches as secondary evidence.
///
/// Counters are atomics so concurrent sessions and morsel workers can bump
/// them without a data race; increments are relaxed (counts need not be
/// ordered against anything, only eventually summed correctly). No mutex is
/// involved, so none of this is GUARDED_BY anything — the atomics are the
/// whole synchronization story, and ExecStatsSnapshot reads are likewise
/// relaxed (a snapshot racing live workers is approximate by design).
struct ExecStats {
  std::atomic<int64_t> rows_scanned{0};      // rows read by sequential scans
  std::atomic<int64_t> index_probes{0};      // index lookups performed
  std::atomic<int64_t> index_rows{0};        // rows produced via index lookups
  std::atomic<int64_t> join_output_rows{0};  // rows emitted by join operators
  std::atomic<int64_t> statements{0};        // SQL statements executed
  std::atomic<int64_t> statement_cache_hits{0};  // prepared-statement reuse
  std::atomic<int64_t> morsels{0};           // parallel morsels dispatched
  std::atomic<int64_t> batches{0};           // row batches drained at plan roots

  void Reset() {
    rows_scanned.store(0, std::memory_order_relaxed);
    index_probes.store(0, std::memory_order_relaxed);
    index_rows.store(0, std::memory_order_relaxed);
    join_output_rows.store(0, std::memory_order_relaxed);
    statements.store(0, std::memory_order_relaxed);
    statement_cache_hits.store(0, std::memory_order_relaxed);
    morsels.store(0, std::memory_order_relaxed);
    batches.store(0, std::memory_order_relaxed);
  }
};

/// Point-in-time copy of ExecStats, so callers can compute the counter
/// deltas attributable to one query (snapshot before, subtract after).
struct ExecStatsSnapshot {
  int64_t rows_scanned = 0;
  int64_t index_probes = 0;
  int64_t index_rows = 0;
  int64_t join_output_rows = 0;
  int64_t statements = 0;
  int64_t statement_cache_hits = 0;
  int64_t morsels = 0;
  int64_t batches = 0;

  static ExecStatsSnapshot Take(const ExecStats& s) {
    ExecStatsSnapshot snap;
    snap.rows_scanned = s.rows_scanned.load(std::memory_order_relaxed);
    snap.index_probes = s.index_probes.load(std::memory_order_relaxed);
    snap.index_rows = s.index_rows.load(std::memory_order_relaxed);
    snap.join_output_rows = s.join_output_rows.load(std::memory_order_relaxed);
    snap.statements = s.statements.load(std::memory_order_relaxed);
    snap.statement_cache_hits =
        s.statement_cache_hits.load(std::memory_order_relaxed);
    snap.morsels = s.morsels.load(std::memory_order_relaxed);
    snap.batches = s.batches.load(std::memory_order_relaxed);
    return snap;
  }

  ExecStatsSnapshot operator-(const ExecStatsSnapshot& rhs) const {
    ExecStatsSnapshot d;
    d.rows_scanned = rows_scanned - rhs.rows_scanned;
    d.index_probes = index_probes - rhs.index_probes;
    d.index_rows = index_rows - rhs.index_rows;
    d.join_output_rows = join_output_rows - rhs.join_output_rows;
    d.statements = statements - rhs.statements;
    d.statement_cache_hits = statement_cache_hits - rhs.statement_cache_hits;
    d.morsels = morsels - rhs.morsels;
    d.batches = batches - rhs.batches;
    return d;
  }
};

/// Relaxed counter bump; the idiom for all ExecStats updates.
inline void StatAdd(std::atomic<int64_t>& counter, int64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

/// Volcano-style physical operator, batch-at-a-time. Open() may be called
/// repeatedly; each call resets the operator to produce its output from the
/// beginning (the nested-loop join relies on this for its inner side).
///
/// The data currency is RowBatch: NextBatch() fills the caller's batch with
/// up to RowBatch::kCapacity rows (joins may overshoot) and returns true iff
/// the batch is non-empty; false means end-of-stream. Operators exchange one
/// virtual call per batch, and predicates/projections run as vectorized
/// kernels over whole batches, so there are no per-row virtual calls in the
/// hot loops. (The old row-at-a-time Next(Tuple*) adapter is gone: all 14
/// operators are batch-native, and point consumers index into batches.)
///
/// Open/NextBatch are wrappers over the per-operator OpenImpl/NextBatchImpl.
/// With profiling off (the default) each wrapper costs a single predictable
/// null test; after EnableProfiling() they accumulate per-operator wall
/// time, batch count, and output cardinality into profile(), which EXPLAIN
/// ANALYZE renders alongside the plan tree.
class PlanNode {
 public:
  /// Per-operator runtime statistics, filled only after EnableProfiling().
  struct Profile {
    int64_t open_ns = 0;   // time inside OpenImpl, cumulative over re-opens
    int64_t next_ns = 0;   // time inside NextBatchImpl, summed over all calls
    int64_t rows_out = 0;  // rows produced by this operator
    int64_t batches = 0;   // non-empty batches produced by this operator
    int64_t morsels = 0;   // parallel morsels dispatched by this operator
  };

  virtual ~PlanNode() = default;

  PlanNode() = default;
  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  const Schema& output_schema() const { return schema_; }

  Status Open() {
    if (profile_ == nullptr) return OpenImpl();
    trace::ScopedPhase phase(&profile_->open_ns);
    return OpenImpl();
  }

  /// Fills *out with the next batch of rows; returns true iff *out is
  /// non-empty, false at end-of-stream. *out is reset by the callee.
  Result<bool> NextBatch(RowBatch* out) {
    if (profile_ == nullptr) return NextBatchImpl(out);
    trace::ScopedPhase phase(&profile_->next_ns);
    Result<bool> r = NextBatchImpl(out);
    if (r.ok() && *r) {
      ++profile_->batches;
      profile_->rows_out += static_cast<int64_t>(out->size());
    }
    return r;
  }

  void Close() { CloseImpl(); }

  /// Allocates a Profile for this operator and every descendant; the
  /// wrappers start accumulating into it from the next call on.
  void EnableProfiling();

  /// Null until EnableProfiling() has been called.
  const Profile* profile() const { return profile_.get(); }

  /// Shares ownership of a materialized virtual-table snapshot with this
  /// plan: scan operators reference snapshots by raw pointer, so the
  /// planner pins each snapshot to the root node to keep it alive for the
  /// plan's lifetime.
  void PinSource(std::shared_ptr<const ScanSource> source) {
    pinned_sources_.push_back(std::move(source));
  }

  /// True when planning materialized a sys.* view for this plan, so its
  /// runs read that snapshot, not the view's current state.
  bool reads_snapshot() const { return reads_snapshot_; }
  void MarkReadsSnapshot() { reads_snapshot_ = true; }

  /// Operator name for EXPLAIN-style rendering.
  virtual std::string Name() const = 0;

  /// Child operators, outer/left first (EXPLAIN tree rendering).
  virtual std::vector<const PlanNode*> Children() const { return {}; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextBatchImpl(RowBatch* out) = 0;
  virtual void CloseImpl() {}

  void set_schema(Schema schema) { schema_ = std::move(schema); }

  /// Column count for NextBatchImpl's out->Reset().
  size_t output_width() const { return schema_.num_columns(); }

  /// Morsel accounting for operators that fan work out to the pool.
  void CountMorsels(int64_t n) {
    if (profile_ != nullptr) profile_->morsels += n;
  }

 private:
  Schema schema_;
  std::unique_ptr<Profile> profile_;
  std::vector<std::shared_ptr<const ScanSource>> pinned_sources_;
  bool reads_snapshot_ = false;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// Sequential scan of every shard's scan range (the whole table, or a
/// SlotWindow's slots) with optional pushed-down filter, batched straight
/// off ScanSource::ScanBatch with the filter applied as a selection vector.
/// Shards scan in order, so output order is deterministic for a given shard
/// count. A re-opened plan over a moved window scans the window's current
/// range.
///
/// Sources with at least ParallelismPolicy::seq_scan_min_rows total slots
/// are scanned as a shard × morsel work grid on GlobalThreadPool at Open
/// time; each grid cell filters its row range of one shard vectorized into
/// a private buffer, and buffers concatenate in grid order, so results are
/// identical to the serial path.
class SeqScanNode : public PlanNode {
 public:
  SeqScanNode(const ScanSource* source, BoundExprPtr filter, ExecStats* stats,
              Epoch epoch = kLatestEpoch);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;
  std::string Name() const override {
    return "SeqScan(" + source_->name() + ")";
  }

 private:
  const ScanSource* source_;
  BoundExprPtr filter_;  // may be null
  ExecStats* stats_;
  Epoch epoch_;  // read epoch for visibility checks
  size_t shard_ = 0;
  RowId cursor_ = 0;
  bool materialized_ = false;     // parallel path: rows_ holds the output
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
  std::vector<uint32_t> sel_scratch_;
};

/// Index lookup for one or more constant keys (supports `col = lit`,
/// `col = ?` and `col IN (...)` access paths), with optional residual
/// filter. Each key is a constant expression (a literal or a statement
/// parameter) evaluated at every Open, so a re-opened plan probes the
/// parameters' current values.
///
/// Index definitions are uniform across shards, so the node re-resolves the
/// shard-0 template index per shard and probes each key against every
/// shard — except single-column indexes on the partition column, where the
/// key's hash routes the probe to its one home shard.
class IndexScanNode : public PlanNode {
 public:
  IndexScanNode(const ScanSource* source, const Index* index,
                std::vector<BoundExprPtr> keys, BoundExprPtr filter,
                ExecStats* stats, Epoch epoch = kLatestEpoch);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Name() const override {
    return "IndexScan(" + source_->name() + "." + index_->name() + ")";
  }

 private:
  /// Probes keys_[key_pos_] into buffer_, advancing the (key, shard) grid.
  /// Returns false when all probes are done.
  bool NextProbe();

  const ScanSource* source_;
  const Index* index_;  // shard-0 template (name/columns)
  bool routed_;         // single-column index on the partition column
  std::vector<BoundExprPtr> key_exprs_;
  std::vector<Tuple> keys_;  // key_exprs_' values as of the last Open
  BoundExprPtr filter_;
  ExecStats* stats_;
  Epoch epoch_;
  size_t key_pos_ = 0;
  size_t shard_pos_ = 0;       // next shard to probe for the current key
  size_t buffer_shard_ = 0;    // shard buffer_ row ids belong to
  std::vector<RowId> buffer_;
  size_t buffer_pos_ = 0;
  std::vector<uint32_t> sel_scratch_;
};

/// Ordered-index range scan for `col OP constant` predicates (OP one of
/// < <= > >=). Bounds are inclusive; the original comparison is always
/// applied as part of the residual filter, so exclusive bounds stay exact.
/// A bound is a constant expression evaluated at every Open; null means
/// unbounded on that side.
class IndexRangeScanNode : public PlanNode {
 public:
  IndexRangeScanNode(const ScanSource* source, const OrderedIndex* index,
                     BoundExprPtr lo, BoundExprPtr hi, BoundExprPtr filter,
                     ExecStats* stats, Epoch epoch = kLatestEpoch);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  std::string Name() const override {
    return "IndexRangeScan(" + source_->name() + "." + index_->name() + ")";
  }

 private:
  /// Runs the range probe against shard_, refilling buffer_.
  void ProbeShard();

  const ScanSource* source_;
  const OrderedIndex* index_;  // shard-0 template
  BoundExprPtr lo_expr_;  // may be null
  BoundExprPtr hi_expr_;  // may be null
  Tuple lo_key_;          // the bounds' values as of the last Open
  Tuple hi_key_;
  BoundExprPtr filter_;
  ExecStats* stats_;
  Epoch epoch_;
  size_t shard_ = 0;           // shard buffer_ row ids belong to
  std::vector<RowId> buffer_;
  size_t buffer_pos_ = 0;
  std::vector<uint32_t> sel_scratch_;
};

/// Filters child batches by a predicate, narrowing the selection vector in
/// place (no row copies).
class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr child, BoundExprPtr predicate);

  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override { child_->Close(); }
  std::string Name() const override { return "Filter"; }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

 private:
  PlanNodePtr child_;
  BoundExprPtr predicate_;
  std::vector<uint32_t> sel_scratch_;
};

/// Projects child batches through expressions column-at-a-time; output
/// schema supplied by the planner (which knows names and inferred types).
class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanNodePtr child, std::vector<BoundExprPtr> exprs,
              Schema schema);

  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override { child_->Close(); }
  std::string Name() const override { return "Project"; }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

 private:
  PlanNodePtr child_;
  std::vector<BoundExprPtr> exprs_;
  RowBatch in_batch_;
  std::vector<uint32_t> idx_scratch_;
};

/// Nested-loop join; the outer side is drained batch-at-a-time and the
/// inner (right) child is re-Opened per outer row. Output row = outer
/// columns ++ inner columns.
class NestedLoopJoinNode : public PlanNode {
 public:
  NestedLoopJoinNode(PlanNodePtr outer, PlanNodePtr inner,
                     BoundExprPtr predicate, ExecStats* stats);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;
  std::string Name() const override { return "NestedLoopJoin"; }

  std::vector<const PlanNode*> Children() const override {
    return {outer_.get(), inner_.get()};
  }

 private:
  PlanNodePtr outer_;
  PlanNodePtr inner_;
  BoundExprPtr predicate_;  // evaluated over combined row; may be null
  ExecStats* stats_;
  RowBatch outer_batch_;
  size_t outer_pos_ = 0;
  Tuple outer_row_;
  bool outer_valid_ = false;
  bool outer_done_ = false;
  RowBatch inner_batch_;
  std::vector<uint32_t> sel_scratch_;
};

/// Hash equi-join: builds a hash table over the right child, probes with
/// left-child batches. Output row = left columns ++ right columns.
///
/// Builds of at least ParallelismPolicy::hash_build_min_rows rows are
/// hash-partitioned: key hashes are computed in parallel, then each of P
/// partitions fills its own table concurrently (every row lands in exactly
/// one partition, chosen by hash % P, so no partition sees another's keys).
/// Probes address the owning partition directly.
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanNodePtr left, PlanNodePtr right,
               std::vector<size_t> left_keys, std::vector<size_t> right_keys,
               BoundExprPtr residual, ExecStats* stats);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;
  std::string Name() const override { return "HashJoin"; }

  std::vector<const PlanNode*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PlanNodePtr left_;
  PlanNodePtr right_;
  std::vector<size_t> left_keys_;
  std::vector<size_t> right_keys_;
  BoundExprPtr residual_;  // may be null
  ExecStats* stats_;

  // Partitioned build; size 1 on the serial path.
  std::vector<std::unordered_multimap<Tuple, Tuple, TupleHash>> parts_;
  RowBatch left_batch_;
  size_t left_pos_ = 0;
  bool left_done_ = false;
  Tuple left_row_;
  Tuple key_scratch_;
  std::vector<const Tuple*> matches_;
  size_t match_pos_ = 0;
  std::vector<uint32_t> sel_scratch_;
};

/// Index nested-loop join: probes an index of the inner base source with
/// key values taken from outer-row slots. Output = outer ++ inner columns.
/// Probes fan out across shards like IndexScanNode's, with the same
/// partition-column routing shortcut.
class IndexNLJoinNode : public PlanNode {
 public:
  IndexNLJoinNode(PlanNodePtr outer, const ScanSource* inner,
                  const Index* index, std::vector<size_t> outer_key_slots,
                  BoundExprPtr residual, ExecStats* stats,
                  Epoch epoch = kLatestEpoch);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;
  std::string Name() const override {
    return "IndexNLJoin(" + inner_->name() + "." + index_->name() + ")";
  }

  std::vector<const PlanNode*> Children() const override {
    return {outer_.get()};
  }

 private:
  /// Probes key_scratch_ against the next shard; false when exhausted.
  bool ProbeNextShard();

  PlanNodePtr outer_;
  const ScanSource* inner_;
  const Index* index_;  // shard-0 template
  bool routed_;         // single-column index on the partition column
  std::vector<size_t> outer_key_slots_;  // aligned with index key columns
  BoundExprPtr residual_;
  ExecStats* stats_;
  Epoch epoch_;
  RowBatch outer_batch_;
  size_t outer_pos_ = 0;
  bool outer_done_ = false;
  Tuple outer_row_;
  Tuple key_scratch_;
  size_t shard_pos_ = 0;     // next shard to probe for the current key
  size_t buffer_shard_ = 0;  // shard buffer_ row ids belong to
  std::vector<RowId> buffer_;
  size_t buffer_pos_ = 0;
  std::vector<uint32_t> sel_scratch_;
};

/// Removes duplicate rows (hash-based, streaming; survivors selected via
/// the batch's selection vector).
class DistinctNode : public PlanNode {
 public:
  explicit DistinctNode(PlanNodePtr child);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override {
    seen_.clear();
    child_->Close();
  }
  std::string Name() const override { return "Distinct"; }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

 private:
  PlanNodePtr child_;
  std::unordered_set<Tuple, TupleHash> seen_;
  std::vector<uint32_t> sel_scratch_;
};

enum class SetOpKind { kUnion, kUnionAll, kExcept, kIntersect };

/// SQL set operation with set (DISTINCT) semantics except kUnionAll.
class SetOpNode : public PlanNode {
 public:
  SetOpNode(PlanNodePtr left, PlanNodePtr right, SetOpKind kind);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;
  std::string Name() const override { return "SetOp"; }

  std::vector<const PlanNode*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Keeps only the rows of *batch that pass this set op's membership test
  /// (dedup against emitted_, EXCEPT/INTERSECT against right_set_).
  void FilterBatch(RowBatch* batch);

  PlanNodePtr left_;
  PlanNodePtr right_;
  SetOpKind kind_;
  bool left_done_ = false;
  std::unordered_set<Tuple, TupleHash> right_set_;
  std::unordered_set<Tuple, TupleHash> emitted_;
  std::vector<uint32_t> sel_scratch_;
};

/// Materializing sort; keys are output-column slots.
class SortNode : public PlanNode {
 public:
  struct SortKey {
    size_t slot;
    bool ascending;
  };

  SortNode(PlanNodePtr child, std::vector<SortKey> keys);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;
  std::string Name() const override { return "Sort"; }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

 private:
  PlanNodePtr child_;
  std::vector<SortKey> keys_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

/// Emits at most `limit` rows (by truncating child batches).
class LimitNode : public PlanNode {
 public:
  LimitNode(PlanNodePtr child, size_t limit);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override { child_->Close(); }
  std::string Name() const override { return "Limit"; }

  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

 private:
  PlanNodePtr child_;
  size_t limit_;
  size_t produced_ = 0;
};

/// Hash aggregation with optional GROUP BY. Group keys and aggregate
/// arguments are evaluated column-at-a-time per input batch; only the
/// accumulator update runs per row (non-virtual).
///
/// With group keys, one output row per distinct key; without, a single
/// global row (emitted even on empty input: COUNT = 0, SUM = 0,
/// MIN/MAX = NULL). COUNT(expr)/SUM/MIN/MAX skip NULL inputs; SUM requires
/// integer inputs.
class AggregateNode : public PlanNode {
 public:
  struct AggSpec {
    sql::AggFn fn;
    BoundExprPtr arg;  // null for COUNT(*)
  };
  /// One select-list output: a group key (index into the key list) or an
  /// aggregate (index into the spec list).
  struct OutputRef {
    bool is_agg;
    size_t index;
  };

  AggregateNode(PlanNodePtr child, std::vector<BoundExprPtr> group_keys,
                std::vector<AggSpec> specs, std::vector<OutputRef> outputs,
                Schema schema);

  Status OpenImpl() override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;
  std::string Name() const override { return "Aggregate"; }
  std::vector<const PlanNode*> Children() const override {
    return {child_.get()};
  }

 private:
  struct Acc {
    int64_t count = 0;
    int64_t sum = 0;
    bool has_value = false;
    Value min;
    Value max;
  };

  PlanNodePtr child_;
  std::vector<BoundExprPtr> group_keys_;
  std::vector<AggSpec> specs_;
  std::vector<OutputRef> outputs_;
  std::vector<std::pair<Tuple, std::vector<Acc>>> groups_;
  size_t pos_ = 0;
};

}  // namespace dkb::exec

#endif  // DKB_EXEC_PLAN_H_
