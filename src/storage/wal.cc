#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
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

using RecordFn =
    std::function<Status(uint64_t lsn, WalRecordKind kind,
                         std::string_view payload)>;

// What a scan reads from the log at a time.
constexpr size_t kScanChunkBytes = 64 * 1024;

Status IoError(const char* what, const std::string& path, int err) {
  return Status::Unavailable(std::string("wal: ") + what + " " + path + ": " +
                             std::strerror(err));
}

// Reads a log front to back, holding only the bytes not yet consumed: one
// chunk, or one frame when a frame is larger than a chunk.
class ChunkReader {
 public:
  ChunkReader(int fd, const std::string& path) : fd_(fd), path_(path) {}

  // Makes the `n` bytes after the cursor available to Peek; *got is false
  // when the file ends first.
  Status Fill(size_t n, bool* got) {
    while (buf_.size() - pos_ < n && !eof_) {
      buf_.erase(0, pos_);
      pos_ = 0;
      const size_t have = buf_.size();
      const size_t want = std::max(n - have, kScanChunkBytes);
      buf_.resize(have + want);
      const ssize_t r = ::read(fd_, buf_.data() + have, want);
      buf_.resize(have + static_cast<size_t>(std::max<ssize_t>(r, 0)));
      if (r < 0) {
        if (errno == EINTR) continue;
        return IoError("read", path_, errno);
      }
      eof_ = r == 0;
    }
    *got = buf_.size() - pos_ >= n;
    return Status::OK();
  }

  std::string_view Peek(size_t n) const {
    return std::string_view(buf_).substr(pos_, n);
  }

  void Skip(size_t n) {
    pos_ += n;
    offset_ += n;
  }

  // The file offset of the cursor.
  uint64_t offset() const { return offset_; }

 private:
  const int fd_;
  const std::string& path_;
  std::string buf_;
  size_t pos_ = 0;
  uint64_t offset_ = 0;
  bool eof_ = false;
};

struct ScanResult {
  uint64_t valid_bytes = 0;  // length of the valid record prefix
  uint64_t last_lsn = 0;     // LSN of the last valid record (0 if none)
};

// Walks the frames of the log open at `fd` from its start, stopping at the
// first torn, corrupt or zero one. Optionally invokes `fn` per valid
// record; a non-OK fn aborts the walk and is returned (distinguishable from
// a clean stop, which returns the valid prefix).
Result<ScanResult> ScanLog(int fd, const std::string& path,
                           const RecordFn* fn) {
  ScanResult result;
  struct stat st;
  if (::fstat(fd, &st) != 0) return IoError("stat", path, errno);
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  ChunkReader in(fd, path);
  for (;;) {
    bool got = false;
    DKB_RETURN_IF_ERROR(in.Fill(kFrameHeaderBytes, &got));
    if (!got) break;  // torn header
    codec::Reader r(in.Peek(kFrameHeaderBytes));
    uint32_t len = 0;
    uint32_t crc = 0;
    uint64_t lsn = 0;
    uint8_t kind = 0;
    if (!r.U32(&len) || !r.U32(&crc) || !r.U64(&lsn) || !r.U8(&kind)) break;
    // LSNs start at 1 and ascend, so this also stops at the zeros after
    // the last record.
    if (lsn <= result.last_lsn) break;
    const uint64_t frame = kFrameHeaderBytes + uint64_t{len};
    if (in.offset() + frame > file_size) break;  // torn payload
    DKB_RETURN_IF_ERROR(in.Fill(frame, &got));
    if (!got) break;
    std::string_view payload = in.Peek(frame).substr(kFrameHeaderBytes);
    if (RecordCrc(lsn, kind, payload) != crc) break;  // corrupt
    if (fn != nullptr) {
      DKB_RETURN_IF_ERROR(
          (*fn)(lsn, static_cast<WalRecordKind>(kind), payload));
    }
    result.last_lsn = lsn;
    in.Skip(frame);
  }
  result.valid_bytes = in.offset();
  return result;
}

// Leaves the log open at `fd` as its first `prefix` bytes followed by
// kPreallocBytes of zeros: whatever followed the prefix is cut off first.
Status ResetTail(int fd, const std::string& path, uint64_t prefix,
                 bool sync) {
  if (::ftruncate(fd, static_cast<off_t>(prefix)) != 0) {
    return IoError("truncate", path, errno);
  }
  const int err = ::posix_fallocate(fd, static_cast<off_t>(prefix),
                                    Wal::kPreallocBytes);
  if (err != 0) return IoError("allocate", path, err);
  if (sync && ::fdatasync(fd) != 0) return IoError("fsync", path, errno);
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
  bool created = false;
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0 && errno == ENOENT) {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
    created = true;
  }
  if (fd < 0) return IoError("open", path, errno);
  Result<ScanResult> scan = ScanLog(fd, path, nullptr);
  Status st = scan.status();
  if (st.ok()) st = ResetTail(fd, path, scan->valid_bytes, options.fsync);
  if (st.ok() && created && options.fsync) st = SyncParentDirectory(path);
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  return std::unique_ptr<Wal>(
      new Wal(path, fd, options, scan->last_lsn, scan->valid_bytes));
}

Wal::Wal(std::string path, int fd, Options options, uint64_t last_lsn,
         uint64_t tail)
    : path_(std::move(path)),
      options_(options),
      fd_(fd),
      tail_(tail),
      allocated_(tail + kPreallocBytes),
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
  const uint64_t end = tail_ + data.size();
  if (end > allocated_) {
    const uint64_t steps =
        (end - allocated_ + kPreallocBytes - 1) / kPreallocBytes;
    const int err =
        ::posix_fallocate(fd_, static_cast<off_t>(allocated_),
                          static_cast<off_t>(steps * kPreallocBytes));
    if (err != 0) return IoError("allocate", path_, err);
    allocated_ += steps * kPreallocBytes;
  }
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::pwrite(fd_, data.data() + off, data.size() - off,
                         static_cast<off_t>(tail_ + off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("write", path_, errno);
    }
    off += static_cast<size_t>(n);
  }
  tail_ = end;
  if (options_.fsync) {
    if (::fdatasync(fd_) != 0) return IoError("fsync", path_, errno);
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
  Status st = ResetTail(fd_, path_, 0, options_.fsync);
  if (!st.ok()) {
    io_status_ = st;
    return st;
  }
  tail_ = 0;
  allocated_ = kPreallocBytes;
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

Status Wal::Replay(const std::string& path, uint64_t after_lsn,
                   const RecordFn& fn) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();
    return IoError("open", path, errno);
  }
  const RecordFn filtered = [&](uint64_t lsn, WalRecordKind kind,
                                std::string_view payload) {
    if (lsn <= after_lsn) return Status::OK();
    return fn(lsn, kind, payload);
  };
  Status st = ScanLog(fd, path, &filtered).status();
  ::close(fd);
  return st;
}

Status SyncParentDirectory(const std::string& path) {
  std::string_view name = path;
  while (name.size() > 1 && name.back() == '/') name.remove_suffix(1);
  const size_t slash = name.find_last_of('/');
  const std::string dir = slash == std::string_view::npos ? "."
                          : slash == 0 ? "/"
                                       : std::string(name.substr(0, slash));
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Unavailable("open directory " + dir + ": " +
                               std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::Unavailable("sync directory " + dir + ": " +
                               std::strerror(saved));
  }
  return Status::OK();
}

}  // namespace dkb
