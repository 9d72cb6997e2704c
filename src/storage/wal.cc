#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/metrics.h"
#include "storage/codec.h"

namespace dkb {

namespace {

// u32 len | u32 crc | u64 lsn | u8 kind
constexpr size_t kFrameHeaderBytes = 4 + 4 + 8 + 1;

uint32_t RecordCrc(uint64_t lsn, uint8_t kind, std::string_view payload) {
  codec::Writer w;
  w.U64(lsn);
  w.U8(kind);
  return codec::Crc32(payload, codec::Crc32(w.str()));
}

std::string EncodeFrame(uint64_t lsn, uint8_t kind, std::string_view payload) {
  codec::Writer w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(RecordCrc(lsn, kind, payload));
  w.U64(lsn);
  w.U8(kind);
  std::string out = std::move(w).Take();
  out.append(payload.data(), payload.size());
  return out;
}

Status ReadWholeFile(const std::string& path, std::string* out,
                     bool* exists) {
  *exists = false;
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();
    return Status::Unavailable("wal: open " + path + ": " +
                               std::strerror(errno));
  }
  *exists = true;
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      return Status::Unavailable("wal: read " + path + ": " +
                                 std::strerror(saved));
    }
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

struct ScanResult {
  size_t valid_bytes = 0;  // length of the valid record prefix
  uint64_t last_lsn = 0;   // LSN of the last valid record (0 if none)
};

// Walks the frames in `data`, stopping at the first torn or corrupt one.
// Optionally invokes `fn` per valid record; a non-OK fn aborts the walk and
// is returned (distinguishable from a clean stop, which returns OK).
Status ScanRecords(
    std::string_view data, ScanResult* result,
    const std::function<Status(uint64_t, WalRecordKind, std::string_view)>*
        fn) {
  size_t off = 0;
  result->valid_bytes = 0;
  result->last_lsn = 0;
  while (data.size() - off >= kFrameHeaderBytes) {
    codec::Reader r(data.substr(off, kFrameHeaderBytes));
    uint32_t len = 0;
    uint32_t crc = 0;
    uint64_t lsn = 0;
    uint8_t kind = 0;
    if (!r.U32(&len) || !r.U32(&crc) || !r.U64(&lsn) || !r.U8(&kind)) break;
    if (data.size() - off - kFrameHeaderBytes < len) break;  // torn payload
    std::string_view payload = data.substr(off + kFrameHeaderBytes, len);
    if (RecordCrc(lsn, kind, payload) != crc) break;  // corrupt
    if (lsn <= result->last_lsn) break;               // LSNs must ascend
    if (fn != nullptr) {
      DKB_RETURN_IF_ERROR(
          (*fn)(lsn, static_cast<WalRecordKind>(kind), payload));
    }
    result->last_lsn = lsn;
    off += kFrameHeaderBytes + len;
    result->valid_bytes = off;
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Mutation codec
// ---------------------------------------------------------------------------

Status Mutation::Validate() const {
  if (kind != WalRecordKind::kDefineBase) return Status::OK();
  if (types.empty() || types.size() > UINT16_MAX) {
    return Status::InvalidArgument(
        "base predicate " + text + " needs 1 to 65535 columns, not " +
        std::to_string(types.size()));
  }
  for (DataType type : types) {
    if (type != DataType::kInteger && type != DataType::kVarchar) {
      return Status::InvalidArgument("base predicate " + text +
                                     " has a column of type " +
                                     DataTypeName(type));
    }
  }
  return Status::OK();
}

std::string EncodeMutation(const Mutation& m) {
  codec::Writer w;
  switch (m.kind) {
    case WalRecordKind::kUpdateStored:
    case WalRecordKind::kClearWorkspace:
      break;
    case WalRecordKind::kDefineBase:
      w.Str(m.text);
      w.U16(static_cast<uint16_t>(m.types.size()));
      for (DataType type : m.types) w.U8(static_cast<uint8_t>(type));
      break;
    case WalRecordKind::kAddFacts:
      w.Str(m.text);
      w.U32(static_cast<uint32_t>(m.rows.size()));
      for (const Tuple& row : m.rows) w.Row(row);
      break;
    default:  // the text kinds
      w.Str(m.text);
      break;
  }
  return w.Take();
}

Result<Mutation> DecodeMutation(WalRecordKind kind, std::string_view payload) {
  auto malformed = [kind](const std::string& why) {
    return Status::InvalidArgument(
        "malformed payload for mutation kind " +
        std::to_string(static_cast<int>(kind)) + ": " + why);
  };
  Mutation m(kind);
  codec::Reader r(payload);
  switch (kind) {
    case WalRecordKind::kUpdateStored:
    case WalRecordKind::kClearWorkspace:
      break;
    case WalRecordKind::kConsult:
    case WalRecordKind::kAddRule:
    case WalRecordKind::kRetractRule:
    case WalRecordKind::kSql:
      r.Str(&m.text);
      break;
    case WalRecordKind::kDefineBase: {
      uint16_t n = 0;
      if (!r.Str(&m.text) || !r.U16(&n)) break;
      m.types.reserve(n);
      for (uint16_t i = 0; i < n; ++i) {
        uint8_t type = 0;
        if (!r.U8(&type)) break;
        if (type != static_cast<uint8_t>(DataType::kInteger) &&
            type != static_cast<uint8_t>(DataType::kVarchar)) {
          return malformed("column type byte " + std::to_string(type));
        }
        m.types.push_back(static_cast<DataType>(type));
      }
      break;
    }
    case WalRecordKind::kAddFacts: {
      uint32_t n = 0;
      if (!r.Str(&m.text) || !r.U32(&n)) break;
      // Every row takes at least its u16 column count.
      if (n > r.remaining() / 2) {
        return malformed(std::to_string(n) + " rows in " +
                         std::to_string(r.remaining()) + " bytes");
      }
      m.rows.resize(n);
      for (Tuple& row : m.rows) {
        if (!r.Row(&row)) break;
      }
      break;
    }
    default:
      return malformed("unknown kind");
  }
  if (!r.Done()) return malformed("truncated or trailing bytes");
  DKB_RETURN_IF_ERROR(m.Validate());
  return m;
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       Options options) {
  std::string data;
  bool exists = false;
  DKB_RETURN_IF_ERROR(ReadWholeFile(path, &data, &exists));
  ScanResult scan;
  DKB_RETURN_IF_ERROR(ScanRecords(data, &scan, nullptr));

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return Status::Unavailable("wal: open " + path + ": " +
                               std::strerror(errno));
  }
  if (scan.valid_bytes < data.size()) {
    // Torn tail from a crash mid-write: drop it so the next append starts
    // on a clean frame boundary.
    if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0) {
      int saved = errno;
      ::close(fd);
      return Status::Unavailable("wal: truncate torn tail of " + path + ": " +
                                 std::strerror(saved));
    }
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    int saved = errno;
    ::close(fd);
    return Status::Unavailable("wal: seek " + path + ": " +
                               std::strerror(saved));
  }
  return std::unique_ptr<Wal>(
      new Wal(path, fd, options, scan.last_lsn));
}

Wal::Wal(std::string path, int fd, Options options, uint64_t last_lsn)
    : path_(std::move(path)),
      options_(options),
      fd_(fd),
      last_lsn_(last_lsn),
      appended_lsn_(last_lsn),
      durable_lsn_(last_lsn) {
  if (options_.group_commit) {
    flusher_ = std::thread([this] { FlusherLoop(); });
  }
}

Wal::~Wal() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::WriteAndSync(std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("wal: write " + path_ + ": " +
                                 std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  if (options_.fsync) {
    if (::fdatasync(fd_) != 0) {
      return Status::Unavailable("wal: fsync " + path_ + ": " +
                                 std::strerror(errno));
    }
    static metrics::Counter& fsync_counter =
        metrics::GlobalMetrics().counter("dkb.wal.fsyncs");
    fsync_counter.Add();
  }
  return Status::OK();
}

Result<uint64_t> Wal::Append(WalRecordKind kind, std::string_view payload) {
  static metrics::Counter& appends =
      metrics::GlobalMetrics().counter("dkb.wal.appends");
  static metrics::Counter& bytes =
      metrics::GlobalMetrics().counter("dkb.wal.bytes");

  MutexLock lock(mu_);
  if (!io_status_.ok()) return io_status_;
  const uint64_t lsn = ++last_lsn_;
  std::string frame = EncodeFrame(lsn, static_cast<uint8_t>(kind), payload);
  appends.Add();
  bytes.Add(static_cast<int64_t>(frame.size()));
  ++appends_;
  if (options_.group_commit) {
    pending_ += frame;
    ++pending_records_;
    appended_lsn_ = lsn;
    work_cv_.NotifyOne();
  } else {
    Status st = WriteAndSync(frame);
    if (options_.fsync) ++fsyncs_;
    if (!st.ok()) {
      io_status_ = st;
      return st;
    }
    appended_lsn_ = lsn;
    durable_lsn_ = lsn;
  }
  return lsn;
}

void Wal::FlusherLoop() {
  static metrics::Histogram& batch_hist =
      metrics::GlobalMetrics().histogram("dkb.wal.group_batch");
  for (;;) {
    std::string batch;
    uint64_t batch_last = 0;
    int64_t batch_records = 0;
    {
      MutexLock lock(mu_);
      while (!stop_ && pending_.empty()) work_cv_.Wait(lock);
      if (pending_.empty()) return;  // stop requested, nothing queued
      batch = std::move(pending_);
      pending_.clear();
      batch_last = appended_lsn_;
      batch_records = pending_records_;
      pending_records_ = 0;
    }
    Status st = WriteAndSync(batch);
    batch_hist.Observe(batch_records);
    {
      MutexLock lock(mu_);
      if (options_.fsync) ++fsyncs_;
      if (!st.ok() && io_status_.ok()) io_status_ = st;
      if (st.ok()) durable_lsn_ = batch_last;
    }
    durable_cv_.NotifyAll();
  }
}

Status Wal::WaitDurable(uint64_t lsn) {
  MutexLock lock(mu_);
  while (io_status_.ok() && durable_lsn_ < lsn) durable_cv_.Wait(lock);
  return io_status_;
}

Status Wal::Truncate() {
  MutexLock lock(mu_);
  // Drain the flusher first so a stale in-flight batch cannot land after
  // the truncation.
  while (io_status_.ok() && durable_lsn_ < last_lsn_) durable_cv_.Wait(lock);
  if (!io_status_.ok()) return io_status_;
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
    io_status_ = Status::Unavailable("wal: truncate " + path_ + ": " +
                                     std::strerror(errno));
    return io_status_;
  }
  if (options_.fsync && ::fdatasync(fd_) != 0) {
    io_status_ = Status::Unavailable("wal: fsync " + path_ + ": " +
                                     std::strerror(errno));
    return io_status_;
  }
  return Status::OK();
}

void Wal::ReserveThrough(uint64_t lsn) {
  MutexLock lock(mu_);
  if (lsn > last_lsn_) {
    last_lsn_ = lsn;
    appended_lsn_ = lsn;
    durable_lsn_ = lsn;
  }
}

uint64_t Wal::last_lsn() const {
  MutexLock lock(mu_);
  return last_lsn_;
}

int64_t Wal::appends() const {
  MutexLock lock(mu_);
  return appends_;
}

int64_t Wal::fsyncs() const {
  MutexLock lock(mu_);
  return fsyncs_;
}

Status Wal::Replay(
    const std::string& path, uint64_t after_lsn,
    const std::function<Status(uint64_t lsn, WalRecordKind kind,
                               std::string_view payload)>& fn) {
  std::string data;
  bool exists = false;
  DKB_RETURN_IF_ERROR(ReadWholeFile(path, &data, &exists));
  if (!exists) return Status::OK();
  std::function<Status(uint64_t, WalRecordKind, std::string_view)> filtered =
      [&](uint64_t lsn, WalRecordKind kind, std::string_view payload) {
        if (lsn <= after_lsn) return Status::OK();
        return fn(lsn, kind, payload);
      };
  ScanResult scan;
  return ScanRecords(data, &scan, &filtered);
}

}  // namespace dkb
