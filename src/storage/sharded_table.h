#ifndef DKB_STORAGE_SHARDED_TABLE_H_
#define DKB_STORAGE_SHARDED_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/scan_source.h"
#include "storage/table.h"

namespace dkb {

/// Hash-partitioned table: N independent Table shards behind the ScanSource
/// interface, partitioned by the hash of one key column. Shards share no
/// state, so distinct shards may be read and written by distinct threads
/// concurrently — they are the engine's NUMA-friendly thread domains.
///
/// The partitioning function is `mix(tuple[key_column].Hash()) %
/// shard_count` (see ShardOf). It depends only on the tuple's key value,
/// never on arrival order, so: (a) re-appending rows scanned from any
/// source reproduces the layout (snapshot load, COW clones); (b) two
/// sources with equal shard counts and key column are *aligned* — identical
/// tuples occupy the same shard index in both, which is what makes the
/// semi-naive termination step's per-shard dedup exact.
class ShardedTable : public ScanSource {
 public:
  /// `shard_count` must be ≥ 1; `key_column` is the partitioning column
  /// (clamped to shard 0 routing for tuples too short to have it).
  ShardedTable(std::string name, Schema schema, size_t shard_count,
               size_t key_column = 0);

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  size_t shard_count() const override { return shards_.size(); }
  const Table& shard(size_t s) const override { return *shards_[s]; }
  Table& shard(size_t s) override { return *shards_[s]; }
  size_t partition_column() const override { return key_column_; }
  size_t ShardOfValue(const Value& v) const override;

  size_t key_column() const { return key_column_; }

 private:
  std::string name_;
  Schema schema_;
  size_t key_column_;
  std::vector<std::unique_ptr<Table>> shards_;
};

/// A new empty, unversioned source with `shard_count` shards: a plain Table
/// for one, a ShardedTable otherwise.
std::unique_ptr<ScanSource> MakeSource(std::string name, Schema schema,
                                       size_t shard_count);

}  // namespace dkb

#endif  // DKB_STORAGE_SHARDED_TABLE_H_
