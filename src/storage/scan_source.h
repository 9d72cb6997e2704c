#ifndef DKB_STORAGE_SCAN_SOURCE_H_
#define DKB_STORAGE_SCAN_SOURCE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/epoch.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace dkb {

class Table;

/// The storage abstraction every scan and mutation goes through: a named,
/// schema'd collection of rows partitioned into `shard_count()` independent
/// `Table` shards. `Table` itself is the single-shard case, `ShardedTable`
/// the hash-partitioned case, and `sys.*` virtual providers materialize
/// single-shard snapshots — the executor addresses all three uniformly as
/// a shard × morsel work grid and never special-cases concrete storage.
///
/// Invariants every implementation maintains:
///  - `ShardOf` is a pure function of the tuple (hash of the key column),
///    so identical tuples always land in the same shard. Per-shard set
///    operations (the LFP's dedup of new rows against an IDB relation) are
///    therefore exact when two sources share a shard count.
///  - All shards share one schema and identical index definitions
///    (AddIndexSpec applies to every shard).
///  - RowIds are shard-local; (shard, RowId) addresses a row.
///
/// Thread safety: externally synchronized like Table (see table.h), with
/// one refinement the sharded LFP path relies on: two threads may mutate
/// *different* shards concurrently, because shards share no state.
class ScanSource {
 public:
  virtual ~ScanSource() = default;

  ScanSource() = default;
  ScanSource(const ScanSource&) = delete;
  ScanSource& operator=(const ScanSource&) = delete;

  virtual const std::string& name() const = 0;
  virtual const Schema& schema() const = 0;

  /// Number of hash partitions; ≥ 1 and fixed for the source's lifetime.
  virtual size_t shard_count() const = 0;

  /// Shard `s` as a plain Table; requires s < shard_count().
  virtual const Table& shard(size_t s) const = 0;
  virtual Table& shard(size_t s) = 0;

  /// The column whose value decides a row's home shard (0 by convention).
  virtual size_t partition_column() const { return 0; }

  /// Home shard of a partition-key value; a pure function of the value, so
  /// re-appending a scanned row reproduces the layout, and index probes on
  /// the partition column can be routed to a single shard.
  virtual size_t ShardOfValue(const Value&) const { return 0; }

  /// Home shard of a full row (rows too short to carry the partition column
  /// route to shard 0).
  size_t ShardOf(const Tuple& tuple) const {
    const size_t pc = partition_column();
    return pc < tuple.size() ? ShardOfValue(tuple[pc]) : 0;
  }

  /// Live tuples across all shards.
  virtual size_t num_tuples() const;

  /// Clears every shard (index definitions survive, contents reset).
  virtual void Clear();

  /// The slots of shard `s` that scans of this source read:
  /// [ScanBegin(s), ScanEnd(s)). Stored sources read every slot; a
  /// SlotWindow narrows the range.
  virtual RowId ScanBegin(size_t) const { return 0; }
  virtual RowId ScanEnd(size_t s) const;

  /// Batch scan of one shard: fills `out` with up to RowBatch::kCapacity
  /// rows visible at epoch `at` starting at slot `cursor` of shard `s`
  /// (clamped to the shard's scan range), returning the cursor for the next
  /// call. An empty result batch means that shard is done.
  RowId ScanBatch(size_t s, RowId cursor, RowBatch* out,
                  Epoch at = kLatestEpoch) const;

  /// Appends every visible row of `batch`, routing each row to its home
  /// shard. This is the hash-repartitioning ("delta exchange") primitive:
  /// appending rows scanned from a differently-sharded source re-shards
  /// them here.
  Status AppendBatch(const RowBatch& batch);

  /// Validated single-row insert, routed by ShardOf. The returned RowId is
  /// local to the row's home shard.
  Result<RowId> Insert(const Tuple& tuple);
  Result<RowId> Insert(Tuple&& tuple);

  /// Creates the index on every shard (same name/columns/kind per shard).
  Status AddIndexSpec(const std::string& index_name,
                      const std::vector<size_t>& key_columns, bool ordered);

  /// Index on shard 0 matching `key_columns`, or nullptr. Because index
  /// definitions are uniform across shards, the planner can use shard 0 as
  /// the template and execution re-resolves per shard by the same columns.
  virtual const Index* FindIndexOn(
      const std::vector<size_t>& key_columns) const;

  /// Attaches the epoch counter to every shard (see Table::EnableVersioning).
  void EnableVersioning(const EpochSource* epochs);

  /// Invokes fn(rid, tuple) for every row visible at `at`, shard-major
  /// (shard 0's rows in slot order, then shard 1's, ...). RowIds are
  /// shard-local. Defined in table.h, where Table is complete.
  template <typename Fn>
  void Scan(Fn&& fn, Epoch at = kLatestEpoch) const;
};

/// A read-only window over the slots of another source: shard `s` of the
/// window reads slots [begin, end) of shard `s` of the base. Batch scans
/// (ScanBatch, and so every SeqScan plan) honour the window; it offers no
/// index, so plans over it always scan. A window is no catalog entry and
/// is never handed to a mutation path.
///
/// The semi-naive LFP keeps each IDB table append-only while a clique
/// iterates, so "the relation before the last iteration" is the slot
/// prefix [0, w_prev) of every shard and "the last iteration's delta" the
/// range [w_prev, w_full): two windows the driver moves forward each
/// iteration instead of copying rows into temporaries.
class SlotWindow : public ScanSource {
 public:
  /// An empty window on every shard of `base`, which must outlive it.
  SlotWindow(std::string name, ScanSource* base);

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return base_->schema(); }
  size_t shard_count() const override { return base_->shard_count(); }
  const Table& shard(size_t s) const override { return base_->shard(s); }
  Table& shard(size_t s) override { return base_->shard(s); }
  size_t partition_column() const override {
    return base_->partition_column();
  }
  size_t ShardOfValue(const Value& v) const override {
    return base_->ShardOfValue(v);
  }

  RowId ScanBegin(size_t s) const override { return begin_[s]; }
  RowId ScanEnd(size_t s) const override { return end_[s]; }

  /// Slots inside the window; the live-row count when the base only ever
  /// grows by appends (the LFP's case).
  size_t num_tuples() const override;

  const Index* FindIndexOn(const std::vector<size_t>&) const override {
    return nullptr;
  }

  /// Empties the window on every shard; the base is untouched.
  void Clear() override;

  /// Moves shard `s`'s window to [begin, end); end must not exceed the
  /// shard's slot count.
  void Set(size_t s, RowId begin, RowId end) {
    begin_[s] = begin;
    end_[s] = end;
  }

 private:
  std::string name_;
  ScanSource* base_;
  std::vector<RowId> begin_;
  std::vector<RowId> end_;
};

}  // namespace dkb

#endif  // DKB_STORAGE_SCAN_SOURCE_H_
