#include "storage/sharded_table.h"

#include <utility>

namespace dkb {

ShardedTable::ShardedTable(std::string name, Schema schema,
                           size_t shard_count, size_t key_column)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_column_(key_column) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    // Shards reuse the logical name: error messages and index bookkeeping
    // stay identical across shard counts.
    shards_.push_back(std::make_unique<Table>(name_, schema_));
  }
}

std::unique_ptr<ScanSource> MakeSource(std::string name, Schema schema,
                                       size_t shard_count) {
  if (shard_count > 1) {
    return std::make_unique<ShardedTable>(std::move(name), std::move(schema),
                                          shard_count);
  }
  return std::make_unique<Table>(std::move(name), std::move(schema));
}

size_t ShardedTable::ShardOfValue(const Value& v) const {
  const size_t n = shards_.size();
  if (n == 1) return 0;
  // Finalizer-style mix: Value::Hash of small integers is nearly identity,
  // which would alias shards for sequential keys under plain modulo.
  size_t h = v.Hash();
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h % n;
}

}  // namespace dkb
