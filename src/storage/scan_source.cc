#include "storage/scan_source.h"

#include <algorithm>
#include <utility>

#include "storage/table.h"

namespace dkb {

size_t ScanSource::num_tuples() const {
  size_t total = 0;
  for (size_t s = 0; s < shard_count(); ++s) total += shard(s).num_tuples();
  return total;
}

void ScanSource::Clear() {
  for (size_t s = 0; s < shard_count(); ++s) shard(s).Clear();
}

RowId ScanSource::ScanEnd(size_t s) const { return shard(s).num_slots(); }

RowId ScanSource::ScanBatch(size_t s, RowId cursor, RowBatch* out,
                            Epoch at) const {
  return shard(s).ScanRange(std::max(cursor, ScanBegin(s)), ScanEnd(s), out,
                            at);
}

void ScanSource::EnableVersioning(const EpochSource* epochs) {
  for (size_t s = 0; s < shard_count(); ++s) {
    shard(s).EnableVersioning(epochs);
  }
}

Status ScanSource::AppendBatch(const RowBatch& batch) {
  if (shard_count() == 1) return shard(0).AppendBatch(batch);
  // Route rows to their home shards through per-shard staging batches so
  // each shard still sees the validated bulk path. This is the delta
  // exchange: rows scanned out of any source get re-partitioned here.
  std::vector<RowBatch> parts(shard_count());
  const size_t cols = batch.num_columns();
  for (RowBatch& p : parts) p.Reset(cols);
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    Tuple t = batch.MaterializeTuple(i);
    const size_t s = ShardOf(t);
    RowBatch& p = parts[s];
    p.AppendRow(std::move(t));
    if (p.full()) {
      DKB_RETURN_IF_ERROR(shard(s).AppendBatch(p));
      p.Reset(cols);
    }
  }
  for (size_t s = 0; s < parts.size(); ++s) {
    if (!parts[s].empty()) DKB_RETURN_IF_ERROR(shard(s).AppendBatch(parts[s]));
  }
  return Status::OK();
}

Result<RowId> ScanSource::Insert(const Tuple& tuple) {
  return shard(ShardOf(tuple)).Insert(tuple);
}

Result<RowId> ScanSource::Insert(Tuple&& tuple) {
  const size_t s = ShardOf(tuple);
  return shard(s).Insert(std::move(tuple));
}

Status ScanSource::AddIndexSpec(const std::string& index_name,
                                const std::vector<size_t>& key_columns,
                                bool ordered) {
  for (size_t s = 0; s < shard_count(); ++s) {
    std::unique_ptr<Index> index;
    if (ordered) {
      index = std::make_unique<OrderedIndex>(index_name, key_columns);
    } else {
      index = std::make_unique<HashIndex>(index_name, key_columns);
    }
    DKB_RETURN_IF_ERROR(shard(s).AddIndex(std::move(index)));
  }
  return Status::OK();
}

const Index* ScanSource::FindIndexOn(
    const std::vector<size_t>& key_columns) const {
  return shard(0).FindIndexOn(key_columns);
}

SlotWindow::SlotWindow(std::string name, ScanSource* base)
    : name_(std::move(name)),
      base_(base),
      begin_(base->shard_count(), 0),
      end_(base->shard_count(), 0) {}

void SlotWindow::Clear() {
  std::fill(begin_.begin(), begin_.end(), 0);
  std::fill(end_.begin(), end_.end(), 0);
}

size_t SlotWindow::num_tuples() const {
  size_t total = 0;
  for (size_t s = 0; s < begin_.size(); ++s) total += end_[s] - begin_[s];
  return total;
}

}  // namespace dkb
