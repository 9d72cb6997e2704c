#ifndef DKB_CATALOG_CATALOG_H_
#define DKB_CATALOG_CATALOG_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "storage/epoch.h"
#include "storage/scan_source.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace dkb {

/// Builds a point-in-time materialization of a virtual table. Called once
/// per query that scans the table (lazily, at plan time); the returned
/// snapshot is immutable and shared-owned by the plan that scans it.
using VirtualTableProvider =
    std::function<Result<std::shared_ptr<const Table>>()>;

/// What a FROM-list name resolves to: a stored source or a virtual-table
/// snapshot. `owned` keeps the source alive for the duration of the plan
/// (shared catalog ownership for stored tables — a concurrent DROP cannot
/// free a table a running plan scans — and the snapshot itself for virtual
/// tables). `read_epoch` is the epoch scans of this source must read at:
/// kLatestEpoch outside MVCC sessions; unversioned sources ignore it.
struct ResolvedSource {
  const ScanSource* source = nullptr;
  std::shared_ptr<const ScanSource> owned;
  Epoch read_epoch = kLatestEpoch;
  bool snapshot = false;  // a virtual table's materialization
};

/// Catalog of tables and their indexes, keyed by case-insensitive name.
/// Stored entries are ScanSources: a plain Table, or a ShardedTable when the
/// catalog-wide default shard count is > 1 (set once at testbed startup, so
/// stored tables and the relations each LFP run builds shard identically
/// and stay aligned for per-shard set operations). No name is reserved: an
/// LFP run creates no entry here (its relations are lfp::RunRelations).
///
/// The name map is guarded by a reader-writer lock so concurrent sessions can
/// resolve tables while the testbed creates or drops its own. The lock
/// covers only the map — table contents are protected by the session-level
/// reader-writer protocol (writers are serialized by Testbed).
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Default shard count for tables created from here on (1 = plain Table).
  /// Set once at startup, before any table exists; not thread-safe against
  /// concurrent CreateTable.
  void SetDefaultShards(size_t n) { default_shards_ = n == 0 ? 1 : n; }
  size_t default_shards() const { return default_shards_; }

  /// MVCC: tables created from here on are attached to `epochs` and stamp
  /// rows with commit epochs. The testbed enables this on its base catalog
  /// before creating any stored table; standalone Databases never do, and
  /// keep pre-MVCC behavior throughout.
  void EnableVersioning(const EpochSource* epochs) { epochs_ = epochs; }

  /// Turns this catalog into a read-only session overlay over `base`: it
  /// holds no tables of its own and resolves every name in base. Resolved
  /// base tables are pinned (shared ownership) until ClearPinnedBases so
  /// raw pointers handed to the LFP survive a concurrent DROP on the base.
  void SetBase(const Catalog* base) { base_ = base; }

  /// The read epoch stamped onto resolutions of stored tables: kLatestEpoch
  /// for base catalogs, the session's pinned epoch for overlays. Direct
  /// scan call sites (LFP, rule compiler) fetch it from the catalog they
  /// resolved the table through.
  void SetReadEpoch(Epoch e) {
    read_epoch_.store(e, std::memory_order_relaxed);
  }
  Epoch read_epoch() const {
    return read_epoch_.load(std::memory_order_relaxed);
  }

  /// Creates an empty table with the catalog's default shard count. Fails
  /// with AlreadyExists on name collision, InvalidArgument for names in the
  /// reserved `sys.` schema and FailedPrecondition on an overlay.
  Result<ScanSource*> CreateTable(const std::string& name, Schema schema)
      DKB_EXCLUDES(mu_);

  /// Creates a table with an explicit shard count (snapshot load restoring
  /// a foreign layout).
  Result<ScanSource*> CreateTable(const std::string& name, Schema schema,
                                  size_t shard_count) DKB_EXCLUDES(mu_);

  /// Registers a read-only virtual table (a system view): its fixed schema
  /// plus a provider that materializes a snapshot on demand. Virtual tables
  /// live in their own namespace-by-convention (`sys.<name>`) and are only
  /// reachable through ResolveScanSource — never through GetSource, and
  /// never serialized or cloned with the stored tables.
  Status RegisterVirtualTable(const std::string& name, Schema schema,
                              VirtualTableProvider provider)
      DKB_EXCLUDES(mu_);

  /// Resolves a FROM-list name: stored tables win, then virtual tables
  /// (whose provider runs here, materializing a fresh snapshot).
  Result<ResolvedSource> ResolveScanSource(const std::string& name) const
      DKB_EXCLUDES(mu_);

  /// Drops a table and its indexes. Fails with NotFound if absent.
  Status DropTable(const std::string& name) DKB_EXCLUDES(mu_);

  /// Looks up a stored source; NotFound if absent. On overlays the lookup
  /// falls through to the base (see SetBase), pinning the hit.
  Result<ScanSource*> GetSource(const std::string& name) const
      DKB_EXCLUDES(mu_);

  /// Like GetSource but hands out shared ownership; used by overlays to pin
  /// base tables and by the checkpoint writer to hold tables steady.
  Result<std::shared_ptr<ScanSource>> GetSourceShared(
      const std::string& name) const DKB_EXCLUDES(mu_);

  bool HasTable(const std::string& name) const DKB_EXCLUDES(mu_);

  /// Shared handles on all stored tables (this catalog only, no base
  /// fall-through), unordered. The vacuum pass and the checkpoint writer
  /// iterate this instead of holding the catalog lock across table work.
  std::vector<std::shared_ptr<ScanSource>> SnapshotTables() const
      DKB_EXCLUDES(mu_);

  /// Drops the base-table pins accumulated since the last call (session
  /// refresh: the new epoch must re-resolve, and dropped tables get freed).
  void ClearPinnedBases() DKB_EXCLUDES(mu_);

  /// Creates an index named `index_name` over `column_names` of `table_name`
  /// — on every shard, so index availability is uniform across the grid.
  /// `ordered` selects OrderedIndex over HashIndex.
  Status CreateIndex(const std::string& table_name,
                     const std::string& index_name,
                     const std::vector<std::string>& column_names,
                     bool ordered);

  /// Counts the changes a statement plan may have captured: tables created
  /// or dropped, indexes created and virtual tables registered here, plus
  /// the base's count on an overlay. While it stays put, a plan built
  /// through this catalog is the plan a fresh planning call would build
  /// (the planner reads no table sizes), so a cached plan may be re-run.
  uint64_t schema_version() const {
    const uint64_t own = schema_version_.load(std::memory_order_acquire);
    return base_ == nullptr ? own : own + base_->schema_version();
  }

  /// Names of all tables, unsorted.
  std::vector<std::string> TableNames() const DKB_EXCLUDES(mu_);

  size_t num_tables() const DKB_EXCLUDES(mu_);

 private:
  static std::string Key(const std::string& name);
  void BumpSchemaVersion() {
    schema_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  struct VirtualEntry {
    Schema schema;
    VirtualTableProvider provider;
  };

  /// Guards the name maps only (see the class comment): ScanSource* handed
  /// out by GetSource/ResolveScanSource deliberately escape the lock —
  /// table *contents* are protected by the session-level reader-writer
  /// protocol, and entries live until DropTable, which the protocol
  /// serializes.
  mutable SharedMutex mu_;
  std::unordered_map<std::string, std::shared_ptr<ScanSource>> tables_
      DKB_GUARDED_BY(mu_);
  /// Base tables resolved through this overlay since the last refresh; keeps
  /// their raw pointers valid across a concurrent DROP on the base.
  mutable std::unordered_map<std::string, std::shared_ptr<ScanSource>>
      pinned_bases_ DKB_GUARDED_BY(mu_);
  std::unordered_map<std::string, VirtualEntry> virtuals_ DKB_GUARDED_BY(mu_);
  size_t default_shards_ = 1;
  const EpochSource* epochs_ = nullptr;
  const Catalog* base_ = nullptr;
  std::atomic<Epoch> read_epoch_{kLatestEpoch};
  std::atomic<uint64_t> schema_version_{0};
};

/// True for names in the reserved system schema ("sys." prefix,
/// case-insensitive). DDL/DML against such names is rejected.
bool IsSystemTableName(const std::string& name);

}  // namespace dkb

#endif  // DKB_CATALOG_CATALOG_H_
