#include "storage/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/row_batch.h"
#include "storage/codec.h"
#include "storage/index.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace dkb {

namespace {

constexpr char kMagic[8] = {'D', 'K', 'B', 'C', 'K', 'P', 'T', '1'};

constexpr uint8_t kCellNull = 0;
constexpr uint8_t kCellInt = 1;
constexpr uint8_t kCellStr = 2;

/// File-local string dictionary built while encoding table data.
class DictBuilder {
 public:
  uint32_t IdOf(const std::string& s) {
    auto it = ids_.find(s);
    if (it != ids_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(strings_.size());
    strings_.push_back(s);
    ids_.emplace(s, id);
    return id;
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> strings_;
};

void EncodeShardRows(const Table& shard, DictBuilder* dict,
                     codec::Writer* w) {
  // Materialize the shard's visible rows once, then lay them out
  // column-major (one tag stream per column compresses the common
  // all-int / all-string cases into tight runs).
  std::vector<Tuple> rows;
  rows.reserve(shard.num_tuples());
  RowBatch batch;
  RowId cursor = 0;
  for (;;) {
    cursor = shard.ScanBatch(cursor, &batch, kLatestEpoch);
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      rows.push_back(batch.MaterializeTuple(i));
    }
  }
  w->U64(rows.size());
  const size_t ncols = shard.schema().num_columns();
  for (size_t c = 0; c < ncols; ++c) {
    for (const Tuple& row : rows) {
      const Value& v = row[c];
      if (v.is_null()) {
        w->U8(kCellNull);
      } else if (v.is_int()) {
        w->U8(kCellInt);
        w->I64(v.as_int());
      } else {
        w->U8(kCellStr);
        w->U32(dict->IdOf(v.as_string()));
      }
    }
  }
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable("checkpoint: open " + tmp + ": " +
                               std::strerror(errno));
  }
  size_t off = 0;
  while (off < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Unavailable("checkpoint: write " + tmp + ": " +
                                 std::strerror(saved));
    }
    off += static_cast<size_t>(n);
  }
  if (::fdatasync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::Unavailable("checkpoint: sync " + tmp + ": " +
                               std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Unavailable("checkpoint: rename to " + path + ": " +
                               std::strerror(errno));
  }
  // The rename is durable only once the directory is: without this, a
  // power loss after the caller truncates the WAL could bring back the old
  // image beside an emptied log.
  return SyncParentDirectory(path);
}

Result<std::string> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("checkpoint: no file at " + path);
    }
    return Status::Unavailable("checkpoint: open " + path + ": " +
                               std::strerror(errno));
  }
  std::string data;
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      return Status::Unavailable("checkpoint: read " + path + ": " +
                                 std::strerror(saved));
    }
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

/// Validates magic + CRC and returns the payload between them.
Result<std::string_view> CheckedPayload(const std::string& data,
                                        const std::string& path) {
  if (data.size() < sizeof(kMagic) + 4 ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("checkpoint: " + path +
                                   " is not a DKBCKPT1 file");
  }
  std::string_view payload(data.data() + sizeof(kMagic),
                           data.size() - sizeof(kMagic) - 4);
  codec::Reader trailer(
      std::string_view(data.data() + data.size() - 4, 4));
  uint32_t stored_crc = 0;
  trailer.U32(&stored_crc);
  if (codec::Crc32(payload) != stored_crc) {
    return Status::InvalidArgument("checkpoint: " + path +
                                   " failed CRC check (torn or corrupt)");
  }
  return payload;
}

}  // namespace

Status WriteCheckpoint(const std::string& path, uint64_t last_lsn,
                       uint64_t epoch,
                       const std::vector<const ScanSource*>& tables,
                       const std::vector<std::string>& rules) {
  // Table data is encoded first (into its own buffer) so the dictionary it
  // discovers can be written ahead of it in the file.
  DictBuilder dict;
  codec::Writer body;
  body.U32(static_cast<uint32_t>(tables.size()));
  for (const ScanSource* table : tables) {
    body.Str(table->name());
    body.U32(static_cast<uint32_t>(table->shard_count()));
    body.U32(static_cast<uint32_t>(table->partition_column()));
    body.Cols(table->schema());
    const auto& indexes = table->shard(0).indexes();
    body.U16(static_cast<uint16_t>(indexes.size()));
    for (const auto& index : indexes) {
      body.Str(index->name());
      body.U8(index->kind() == IndexKind::kOrdered ? 1 : 0);
      body.U16(static_cast<uint16_t>(index->key_columns().size()));
      for (size_t col : index->key_columns()) {
        body.U16(static_cast<uint16_t>(col));
      }
    }
    for (size_t s = 0; s < table->shard_count(); ++s) {
      EncodeShardRows(table->shard(s), &dict, &body);
    }
  }

  codec::Writer payload;
  payload.U64(last_lsn);
  payload.U64(epoch);
  payload.U32(static_cast<uint32_t>(rules.size()));
  for (const std::string& rule : rules) payload.Str(rule);
  payload.U32(static_cast<uint32_t>(dict.strings().size()));
  for (const std::string& s : dict.strings()) payload.Str(s);

  std::string file(kMagic, sizeof(kMagic));
  file += payload.str();
  file += body.str();
  const uint32_t crc =
      codec::Crc32(std::string_view(file).substr(sizeof(kMagic)));
  codec::Writer trailer;
  trailer.U32(crc);
  file += trailer.str();

  DKB_RETURN_IF_ERROR(WriteFileAtomic(path, file));

  static metrics::Counter& writes =
      metrics::GlobalMetrics().counter("dkb.checkpoint.writes");
  static metrics::Counter& bytes =
      metrics::GlobalMetrics().counter("dkb.checkpoint.bytes");
  writes.Add();
  bytes.Add(static_cast<int64_t>(file.size()));
  return Status::OK();
}

Result<CheckpointInfo> ReadCheckpoint(const std::string& path,
                                      const TableFactory& factory,
                                      std::vector<std::string>* rules_out) {
  DKB_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
  DKB_ASSIGN_OR_RETURN(std::string_view payload, CheckedPayload(data, path));
  codec::Reader r(payload);

  const auto malformed = [&path]() {
    return Status::InvalidArgument("checkpoint: " + path +
                                   " is malformed (truncated payload)");
  };
  // A count of items needing at least `bytes` each that the rest of the
  // payload cannot hold is malformed, not a reason to reserve memory.
  const auto too_many = [&r](uint64_t count, size_t bytes) {
    return count > r.remaining() / bytes;
  };

  CheckpointInfo info;
  uint32_t nrules = 0;
  if (!r.U64(&info.last_lsn) || !r.U64(&info.epoch) || !r.U32(&nrules)) {
    return malformed();
  }
  if (rules_out != nullptr) rules_out->clear();
  for (uint32_t i = 0; i < nrules; ++i) {
    std::string rule;
    if (!r.Str(&rule)) return malformed();
    if (rules_out != nullptr) rules_out->push_back(std::move(rule));
  }

  uint32_t ndict = 0;
  if (!r.U32(&ndict) || too_many(ndict, 4)) return malformed();
  std::vector<Value> dict;
  dict.reserve(ndict);
  for (uint32_t i = 0; i < ndict; ++i) {
    std::string s;
    if (!r.Str(&s)) return malformed();
    // Pre-intern once; cells then copy a 4-byte dictionary reference.
    dict.push_back(Value::Interned(s));
  }

  uint32_t ntables = 0;
  if (!r.U32(&ntables)) return malformed();
  for (uint32_t t = 0; t < ntables; ++t) {
    std::string name;
    uint32_t shard_count = 0;
    uint32_t partition_column = 0;
    Schema schema;
    if (!r.Str(&name) || !r.U32(&shard_count) || !r.U32(&partition_column) ||
        !r.Cols(&schema)) {
      return malformed();
    }
    if (shard_count == 0 || too_many(shard_count, 8)) return malformed();

    struct IndexSpec {
      std::string name;
      bool ordered;
      std::vector<size_t> key_columns;
    };
    uint16_t nindexes = 0;
    if (!r.U16(&nindexes)) return malformed();
    std::vector<IndexSpec> index_specs(nindexes);
    for (auto& spec : index_specs) {
      uint8_t ordered = 0;
      uint16_t ncols = 0;
      if (!r.Str(&spec.name) || !r.U8(&ordered) || !r.U16(&ncols)) {
        return malformed();
      }
      spec.ordered = ordered != 0;
      spec.key_columns.resize(ncols);
      for (auto& col : spec.key_columns) {
        uint16_t c = 0;
        if (!r.U16(&c)) return malformed();
        col = c;
      }
    }

    DKB_ASSIGN_OR_RETURN(
        ScanSource * source,
        factory(name, schema, shard_count, partition_column));
    if (source->shard_count() != shard_count) {
      return Status::Internal("checkpoint: factory created '" + name +
                              "' with " +
                              std::to_string(source->shard_count()) +
                              " shards, file has " +
                              std::to_string(shard_count));
    }

    const size_t ncols = schema.num_columns();
    for (uint32_t s = 0; s < shard_count; ++s) {
      uint64_t nrows = 0;
      if (!r.U64(&nrows) || too_many(nrows, std::max<size_t>(ncols, 1))) {
        return malformed();
      }
      std::vector<std::vector<Value>> columns(ncols);
      for (size_t c = 0; c < ncols; ++c) {
        columns[c].reserve(nrows);
        for (uint64_t i = 0; i < nrows; ++i) {
          uint8_t tag = 0;
          if (!r.U8(&tag)) return malformed();
          switch (tag) {
            case kCellNull:
              columns[c].push_back(Value::Null());
              break;
            case kCellInt: {
              int64_t v = 0;
              if (!r.I64(&v)) return malformed();
              columns[c].push_back(Value(v));
              break;
            }
            case kCellStr: {
              uint32_t id = 0;
              if (!r.U32(&id)) return malformed();
              if (id >= dict.size()) return malformed();
              columns[c].push_back(dict[id]);
              break;
            }
            default:
              return malformed();
          }
        }
      }
      // Rows go straight into their original shard — no re-hashing — so
      // the recovered layout is byte-for-byte the one that was saved.
      Table& shard = source->shard(s);
      RowBatch batch;
      batch.Reset(ncols);
      for (uint64_t i = 0; i < nrows; ++i) {
        Tuple row;
        row.reserve(ncols);
        for (size_t c = 0; c < ncols; ++c) row.push_back(columns[c][i]);
        batch.AppendRow(std::move(row));
        if (batch.full()) {
          DKB_RETURN_IF_ERROR(shard.AppendBatch(batch));
          batch.Reset(ncols);
        }
      }
      if (!batch.empty()) DKB_RETURN_IF_ERROR(shard.AppendBatch(batch));
    }

    for (const auto& spec : index_specs) {
      DKB_RETURN_IF_ERROR(
          source->AddIndexSpec(spec.name, spec.key_columns, spec.ordered));
    }
  }
  if (!r.Done()) {
    return Status::InvalidArgument("checkpoint: " + path +
                                   " has trailing garbage");
  }

  static metrics::Counter& loads =
      metrics::GlobalMetrics().counter("dkb.checkpoint.loads");
  loads.Add();
  return info;
}

Result<CheckpointInfo> PeekCheckpoint(const std::string& path) {
  DKB_ASSIGN_OR_RETURN(std::string data, ReadWholeFile(path));
  DKB_ASSIGN_OR_RETURN(std::string_view payload, CheckedPayload(data, path));
  codec::Reader r(payload);
  CheckpointInfo info;
  if (!r.U64(&info.last_lsn) || !r.U64(&info.epoch)) {
    return Status::InvalidArgument("checkpoint: " + path +
                                   " is malformed (truncated payload)");
  }
  return info;
}

}  // namespace dkb
