#ifndef DKB_STORAGE_TABLE_H_
#define DKB_STORAGE_TABLE_H_

#include <array>
#include <atomic>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "storage/epoch.h"
#include "storage/index.h"
#include "storage/scan_source.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace dkb {

/// Heap table: an append-only, segmented in-memory store with per-row
/// [begin, end) epoch stamps and attached secondary indexes. The
/// single-shard ScanSource — every shard of a ShardedTable is one of these.
///
/// Rows live in fixed-size segments reached through a two-level directory of
/// atomic pointers, so slot addresses are stable for the lifetime of the
/// table and the directory grows without relocating anything a concurrent
/// reader might hold. Row ids are slot numbers and never change, which lets
/// indexes reference rows directly.
///
/// Versioning: a table attached to an EpochSource (EnableVersioning; done by
/// the catalog for the testbed's stored tables) stamps every insert with the
/// in-flight write epoch and turns deletes into end-stamps, so readers
/// pinned at an older epoch keep seeing the rows that were visible when they
/// pinned. Unversioned tables (LFP run relations, standalone databases)
/// stamp begin = 0 / end = kNever and behave exactly like the pre-MVCC
/// store: deletes erase index entries eagerly and Clear() resets physically.
///
/// Thread safety: writers are externally serialized (the testbed writer
/// lock). On *versioned* tables, readers pinned at an epoch run lock-free
/// against concurrent writers: slot visibility fields are atomics, new slots
/// are published by a release-store of size_, and the index *structures* are
/// protected by a per-table reader-writer lock that writers take per batch
/// and probes take per probe (see ProbeIndex). Index entries of deleted rows
/// are erased lazily by Vacuum once no pinned epoch can see them, so probes
/// must filter hits through VisibleAt. Unversioned tables keep the original
/// contract: no reader may overlap a mutation, and no locks are taken. See
/// DESIGN.md "Durability & MVCC".
class Table : public ScanSource {
 public:
  /// Rows per segment; one segment fills exactly one scan batch.
  static constexpr size_t kSegmentRows = 1024;
  static constexpr size_t kChunkSegments = 64;  // segments per chunk
  static constexpr size_t kMaxChunks = 1024;    // 64M rows per shard

  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}
  ~Table() override;

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }

  /// ScanSource: a Table is its own single shard.
  size_t shard_count() const override { return 1; }
  const Table& shard(size_t) const override { return *this; }
  Table& shard(size_t) override { return *this; }

  /// Attaches the epoch counter; rows inserted from here on are stamped.
  /// Must run before the first insert (the catalog calls it at CreateTable).
  void EnableVersioning(const EpochSource* epochs) { epochs_ = epochs; }
  bool versioned() const { return epochs_ != nullptr; }

  /// Number of rows visible at the latest epoch.
  size_t num_tuples() const override {
    return static_cast<size_t>(live_count_.load(std::memory_order_relaxed));
  }
  /// Total slots including dead ones; valid RowIds are < num_slots().
  size_t num_slots() const { return size_.load(std::memory_order_acquire); }

  /// Appends a tuple. The tuple must match the schema arity; values must be
  /// of the declared types (or NULL). Updates all indexes. VARCHAR values
  /// are interned on the way in, so stored tuples hand out O(1)-copy values.
  Result<RowId> Insert(const Tuple& tuple);
  /// Move overload for hot paths that give up their tuple.
  Result<RowId> Insert(Tuple&& tuple);

  /// Appends without validation; caller guarantees schema conformance.
  /// Used on hot bulk-load paths (workload generators, LFP deltas).
  RowId InsertUnchecked(Tuple tuple);

  /// Appends every visible row of `batch`. Validates the column count once
  /// and value types column-wise, then takes the unchecked path per row
  /// (index maintenance locked once for the whole batch when versioned).
  Status AppendBatch(const RowBatch& batch);

  /// Fills `out` with up to RowBatch::kCapacity rows visible at `at`,
  /// starting at slot `cursor`, and returns the cursor for the next call.
  /// `out` is reset to the schema arity; an empty result batch means the
  /// scan is exhausted (invisible windows are skipped, not surfaced as
  /// empty batches).
  RowId ScanBatch(RowId cursor, RowBatch* out, Epoch at = kLatestEpoch) const {
    return ScanRange(cursor, num_slots(), out, at);
  }

  /// ScanBatch that stops at slot `end` (clamped to num_slots()): the
  /// bounded scan behind ScanSource::ScanBatch and SlotWindow.
  RowId ScanRange(RowId cursor, RowId end, RowBatch* out,
                  Epoch at = kLatestEpoch) const;

  /// End-stamps the row if visible at latest; returns false if already
  /// dead. Versioned tables keep the row's index entries until Vacuum;
  /// unversioned tables erase them eagerly.
  bool Delete(RowId rid);

  /// Removes every row visible at latest. Versioned: a mass end-stamp
  /// (slots, payloads, and index entries stay until Vacuum so pinned
  /// readers are unaffected). Unversioned: physical reset — payloads are
  /// freed, size drops to zero, indexes are rebuilt empty (segments stay
  /// allocated for reuse, which keeps LFP's per-iteration temp churn cheap).
  void Clear() override;

  /// Reclaims rows no reader can see: every slot whose end epoch is at or
  /// below `min_pinned` (the oldest pinned epoch, or the committed epoch
  /// when no session is pinned) has its index entries erased and its tuple
  /// payload freed. Slot headers remain (RowIds stay stable); the freed
  /// payloads and index entries are the O(data) part. Returns the number of
  /// slots reclaimed. Versioned tables only; excluded against writers by
  /// the caller (the testbed reclaimer serializes with its writer lock).
  size_t Vacuum(Epoch min_pinned);

  /// Rough resident footprint: the object itself (its inline directory
  /// makes it several KB), allocated segments plus directory chunks.
  /// Interned VARCHAR payloads live in the global dictionary and are not
  /// counted.
  size_t ApproxBytes() const;

  /// Executor hook: scan morsels dispatched against this shard, for
  /// sys.shards. Relaxed counter — a statistic, not a synchronization.
  void NoteMorsels(uint64_t n) const {
    morsels_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t morsels_dispatched() const {
    return morsels_.load(std::memory_order_relaxed);
  }

  /// Non-empty batches ScanBatch has produced from this shard (same relaxed
  /// statistics-only discipline as the morsel counter), for sys.shards.
  uint64_t scan_batches() const {
    return scan_batches_.load(std::memory_order_relaxed);
  }

  /// Visibility of slot `rid` at read epoch `at` (kLatestEpoch = the write
  /// path's view). Safe to call concurrently with writers on versioned
  /// tables.
  bool VisibleAt(RowId rid, Epoch at) const {
    if (rid >= num_slots()) return false;
    const Slot& slot = SlotRef(rid);
    return EpochVisible(slot.begin.load(std::memory_order_relaxed),
                        slot.end.load(std::memory_order_acquire), at);
  }

  /// Visibility at latest; kept for write-path callers.
  bool IsLive(RowId rid) const { return VisibleAt(rid, kLatestEpoch); }

  /// Requires VisibleAt(rid, at) for the caller's read epoch (a visible
  /// row's payload is never touched by Vacuum).
  const Tuple& Get(RowId rid) const { return SlotRef(rid).tuple; }

  /// Invokes fn(rid, tuple) for every row visible at `at`, in slot order.
  template <typename Fn>
  void Scan(Fn&& fn, Epoch at = kLatestEpoch) const {
    const RowId n = num_slots();
    for (RowId rid = 0; rid < n; ++rid) {
      const Slot& slot = SlotRef(rid);
      if (EpochVisible(slot.begin.load(std::memory_order_relaxed),
                       slot.end.load(std::memory_order_acquire), at)) {
        fn(rid, slot.tuple);
      }
    }
  }

  /// Attaches a new index and bulk-builds it. Versioned tables index every
  /// non-reclaimed slot (dead-but-still-visible-somewhere rows included, so
  /// pinned readers can probe them); unversioned tables index live rows.
  /// Returns error if an index with the same name exists.
  Status AddIndex(std::unique_ptr<Index> index);

  /// Index whose key columns exactly equal `key_columns` (order-insensitive);
  /// nullptr if none. Used by the planner for index-scan and index-join
  /// selection. Takes the index lock shared on versioned tables (a
  /// concurrent CREATE INDEX may be growing the list).
  const Index* FindIndexOn(
      const std::vector<size_t>& key_columns) const override;

  /// Equality probe through the per-table index lock (a no-op lock for
  /// unversioned tables). Hits must still be filtered with VisibleAt —
  /// versioned indexes retain entries for dead rows until Vacuum.
  void ProbeIndex(const Index* index, const Tuple& key,
                  std::vector<RowId>* out) const;

  /// Range probe over an ordered index, same locking and filtering contract
  /// as ProbeIndex. Bounds are inclusive; nullptr = unbounded.
  void ProbeIndexRange(const OrderedIndex* index, const Tuple* lo,
                       const Tuple* hi, std::vector<RowId>* out) const;

  /// Index definitions. Caller must not overlap a concurrent CREATE INDEX
  /// (write-path callers hold the testbed writer lock; the planner uses
  /// FindIndexOn instead).
  const std::vector<std::unique_ptr<Index>>& indexes() const {
    return indexes_;
  }

 private:
  struct Slot {
    Tuple tuple;
    /// Epoch the row became visible; kNeverEpoch marks a reclaimed slot.
    std::atomic<Epoch> begin{0};
    /// Epoch the row stopped being visible; kNeverEpoch = still live.
    std::atomic<Epoch> end{kNeverEpoch};
  };

  /// Raw storage for kSegmentRows slots. EnsureSlot constructs each slot
  /// the first time the table reaches it, so a table pays for the slots it
  /// has used, not for whole segments.
  struct Segment {
    alignas(Slot) unsigned char bytes[kSegmentRows * sizeof(Slot)];

    Slot* slot(size_t i) {
      return std::launder(reinterpret_cast<Slot*>(bytes) + i);
    }
    const Slot* slot(size_t i) const {
      return std::launder(reinterpret_cast<const Slot*>(bytes) + i);
    }
  };

  struct Chunk {
    std::array<std::atomic<Segment*>, kChunkSegments> segs{};
  };

  Status ValidateTuple(const Tuple& tuple) const;

  /// Slot address for an existing RowId (rid < num_slots()). Two acquire
  /// loads; the release-store publishing size_ ordered the directory writes
  /// before it, so readers never observe a null chunk or segment here.
  const Slot& SlotRef(RowId rid) const {
    const size_t seg = rid / kSegmentRows;
    const Chunk* chunk =
        dir_[seg / kChunkSegments].load(std::memory_order_acquire);
    return *chunk->segs[seg % kChunkSegments]
                .load(std::memory_order_acquire)
                ->slot(rid % kSegmentRows);
  }
  Slot& SlotRef(RowId rid) {
    return const_cast<Slot&>(
        static_cast<const Table*>(this)->SlotRef(rid));
  }

  /// Writer-only: slot for the next insert, allocating directory levels as
  /// needed (published with release stores so readers racing on size_ see
  /// initialized pointers) and constructing the slot the first time the
  /// table reaches it. The caller publishes the slot through size_.
  Slot& EnsureSlot(RowId rid);

  /// Unlocked insert body; caller holds the index write lock if versioned.
  RowId InsertRow(Tuple tuple);

  /// Unlocked bodies of AddIndex / FindIndexOn; callers hold index_mu_ in
  /// the right mode when versioned.
  Status AddIndexLocked(std::unique_ptr<Index> index);
  const Index* FindIndexOnLocked(const std::vector<size_t>& key_columns) const;

  std::string name_;
  Schema schema_;
  const EpochSource* epochs_ = nullptr;

  /// Two-level segment directory: dir_[c] -> Chunk -> Segment. Entries are
  /// written once (by the serialized writer) and read lock-free.
  std::array<std::atomic<Chunk*>, kMaxChunks> dir_{};
  /// Slots in use; release-published after the slot is fully initialized.
  std::atomic<uint64_t> size_{0};
  /// Slots [0, constructed_) are constructed; always >= size_. Survives an
  /// unversioned Clear, whose reset slots are reused. Writer-only.
  RowId constructed_ = 0;
  std::atomic<int64_t> live_count_{0};
  /// Allocation counters for ApproxBytes (writer-bumped, readers relaxed).
  std::atomic<size_t> chunks_allocated_{0};
  std::atomic<size_t> segments_allocated_{0};

  /// Guards index structures (the indexes_ list and each index's map)
  /// against lock-free pinned readers — only ever locked on versioned
  /// tables, where writers take it exclusively per batch and probes take it
  /// shared. Not annotated: acquisition is conditional on versioned(), which
  /// the static analysis cannot express; the discipline is documented here
  /// and exercised under TSan instead.
  mutable SharedMutex index_mu_;
  std::vector<std::unique_ptr<Index>> indexes_;

  mutable std::atomic<uint64_t> morsels_{0};
  mutable std::atomic<uint64_t> scan_batches_{0};
};

// Defined here, where Table is complete: the generic Scan walks shards in
// order, dispatching statically to Table::Scan per shard.
template <typename Fn>
void ScanSource::Scan(Fn&& fn, Epoch at) const {
  for (size_t s = 0; s < shard_count(); ++s) shard(s).Scan(fn, at);
}

}  // namespace dkb

#endif  // DKB_STORAGE_TABLE_H_
