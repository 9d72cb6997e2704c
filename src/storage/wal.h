#ifndef DKB_STORAGE_WAL_H_
#define DKB_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/value.h"
#include "storage/tuple.h"

namespace dkb {

/// Kinds of redo records. These are *logical* testbed operations, not
/// physical page deltas: replaying the sequence through the testbed's commit
/// path reproduces the exact post-crash state (the write paths are
/// deterministic, including hash-partition layout). Each record's payload is
/// the EncodeMutation of one Mutation of its kind (below), and the wire's
/// mutation requests carry the same bytes. Values are format-stable —
/// append only, never renumber.
enum class WalRecordKind : uint8_t {
  kConsult = 1,
  kAddRule = 2,
  kRetractRule = 3,
  kDefineBase = 4,
  kAddFacts = 5,
  kUpdateStored = 6,
  kClearWorkspace = 7,
  kSql = 8,
};

/// One testbed write: what a WAL record logs and a wire mutation request
/// carries. The fields each kind uses, in payload order (storage/codec.h
/// primitives):
///
///   kConsult         str text (the program)
///   kAddRule         str text (the rule)
///   kRetractRule     str text (the rule)
///   kDefineBase      str text (the predicate), u16 n, n x u8 DataType
///   kAddFacts        str text (the predicate), u32 n, n x Row
///   kUpdateStored    (empty)
///   kClearWorkspace  (empty)
///   kSql             str text (the statement)
struct Mutation {
  Mutation(WalRecordKind kind, std::string text = {},
           std::vector<DataType> types = {}, std::vector<Tuple> rows = {})
      : kind(kind),
        text(std::move(text)),
        types(std::move(types)),
        rows(std::move(rows)) {}

  WalRecordKind kind;
  std::string text;
  std::vector<DataType> types;  // kDefineBase
  std::vector<Tuple> rows;      // kAddFacts

  /// The checks the fields must pass whatever the testbed holds:
  /// InvalidArgument for a kDefineBase with no columns, more than a u16
  /// count holds, or a column type other than INTEGER or VARCHAR.
  Status Validate() const;
};

/// The payload bytes of `m`.
std::string EncodeMutation(const Mutation& m);

/// Parses a payload of `kind` and validates it: InvalidArgument for an
/// unknown kind, a payload that ends early or runs on, a row count the
/// payload cannot hold, a byte that names no column type, or fields that
/// Mutation::Validate rejects.
Result<Mutation> DecodeMutation(WalRecordKind kind, std::string_view payload);

/// Write-ahead redo log.
///
/// On-disk format: a sequence of records, each framed as
///
///   u32 len      payload bytes
///   u32 crc      CRC-32 over (lsn || kind || payload)
///   u64 lsn      monotonically increasing, never reused within a log's life
///   u8  kind     WalRecordKind
///   payload      len bytes: EncodeMutation of the record's Mutation
///
/// The file is kept allocated ahead of its last record: the records are
/// followed by zeros, at least kPreallocBytes of them after Open or
/// Truncate, so a durable append overwrites bytes the file already has and
/// its fdatasync flushes data without a new file size. The file is extended
/// by another kPreallocBytes only when a batch would cross its end. A scan
/// stops at the first torn frame (short header, short payload), corrupt
/// frame (CRC mismatch) or zero header (no record has LSN 0, and LSNs
/// ascend), so the zeros after the last record end it like the end of the
/// file does. The scan reads the file in chunks and holds one chunk, or one
/// record when a record is larger, never the whole log. A log without the
/// zeros (the layout before preallocation, which ends at its last record)
/// opens the same way.
///
/// Check, log, apply: the testbed checks everything that can reject a write
/// before it appends the record, so the log holds only writes that apply
/// whole, and then applies it. SQL is the exception: its record is logged
/// once the statement parses, because a multi-row statement can fail part
/// way with no rollback, and replay must repeat whatever part applied.
/// Replay runs each record through the same check and apply, and skips a
/// record whose check fails (older logs hold writes that were logged before
/// they were rejected); a payload DecodeMutation rejects stops recovery.
///
/// Durability: Append assigns the LSN and stages bytes; WaitDurable(lsn)
/// blocks until the record is written (and fsync'd, when Options::fsync).
/// With group commit a background flusher coalesces every record staged
/// since the last fsync into one write+fsync, so N writers waiting
/// concurrently cost one disk flush, not N. Without group commit Append
/// writes through synchronously.
///
/// Thread safety: Append calls are serialized by the caller (the testbed
/// writer lock). WaitDurable may be called from any thread and is designed
/// to be called *after* releasing the writer lock, so the next writer can
/// append (and join the same fsync batch) while this one waits.
class Wal {
 public:
  struct Options {
    bool fsync = true;         // fdatasync flushed batches
    bool group_commit = true;  // coalesce appends into batched fsyncs
  };

  /// The zeros Open and Truncate leave after the last record, and the step
  /// by which an append that would cross the file's end extends it.
  static constexpr int64_t kPreallocBytes = int64_t{1} << 20;

  /// Opens (creating if needed) the log at `path`, scans for the last valid
  /// record, and leaves the file as the valid records followed by
  /// kPreallocBytes of zeros: whatever followed them (a torn write, the
  /// zeros of an earlier open) is cut off first. With Options::fsync the
  /// result is fdatasync'd, and a newly created log's directory is synced
  /// so the log's entry in it survives a power loss; the directory's own
  /// entry is its creator's to sync. Then starts the flusher thread.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           Options options);

  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record and returns its LSN. Not durable until
  /// WaitDurable(lsn) returns OK.
  Result<uint64_t> Append(WalRecordKind kind, std::string_view payload)
      DKB_EXCLUDES(mu_);

  /// Blocks until every record with LSN <= lsn has been flushed (and
  /// fsync'd when enabled). Returns the sticky I/O error if the log died.
  Status WaitDurable(uint64_t lsn) DKB_EXCLUDES(mu_);

  /// Empties the log after a checkpoint made its prefix redundant: the file
  /// becomes kPreallocBytes of zeros (fdatasync'd with Options::fsync), and
  /// the next append lands at offset 0. LSNs keep ascending (they are never
  /// reused), so records appended after the truncation still sort after the
  /// checkpoint's last_lsn.
  Status Truncate() DKB_EXCLUDES(mu_);

  /// Raises the LSN counter to at least `lsn`. Called once at recovery with
  /// the checkpoint's last_lsn, so fresh appends (into the truncated log)
  /// still get LSNs above everything the checkpoint covers.
  void ReserveThrough(uint64_t lsn) DKB_EXCLUDES(mu_);

  uint64_t last_lsn() const DKB_EXCLUDES(mu_);

  /// Total records appended and fsyncs issued since Open (sys.wal).
  int64_t appends() const DKB_EXCLUDES(mu_);
  int64_t fsyncs() const DKB_EXCLUDES(mu_);

  /// Replays the valid prefix of the log at `path` in order, invoking fn
  /// for every record with LSN > after_lsn. Stops cleanly at a torn,
  /// corrupt or zero frame, reading the file in the same chunked scan as
  /// Open. A missing file replays nothing. fn's error aborts.
  static Status Replay(
      const std::string& path, uint64_t after_lsn,
      const std::function<Status(uint64_t lsn, WalRecordKind kind,
                                 std::string_view payload)>& fn);

 private:
  Wal(std::string path, int fd, Options options, uint64_t last_lsn,
      uint64_t tail);

  void FlusherLoop();
  /// Writes `data` at the log's tail, extending the allocation first when
  /// `data` would cross it, and fsyncs if configured; returns the first I/O
  /// failure.
  Status WriteAndSync(std::string_view data);

  const std::string path_;
  const Options options_;
  int fd_;
  // The file offset of the next frame and the file's allocated size. The
  // writer owns them: the flusher with group commit, Append (under mu_)
  // without. Truncate resets them under mu_ once the flusher has drained,
  // so every access is ordered by mu_ without being guarded by it.
  uint64_t tail_;
  uint64_t allocated_;

  mutable Mutex mu_;
  uint64_t last_lsn_ DKB_GUARDED_BY(mu_);
  uint64_t appended_lsn_ DKB_GUARDED_BY(mu_);  // last staged for the flusher
  uint64_t durable_lsn_ DKB_GUARDED_BY(mu_);
  std::string pending_ DKB_GUARDED_BY(mu_);
  int64_t pending_records_ DKB_GUARDED_BY(mu_) = 0;
  int64_t appends_ DKB_GUARDED_BY(mu_) = 0;
  int64_t fsyncs_ DKB_GUARDED_BY(mu_) = 0;
  Status io_status_ DKB_GUARDED_BY(mu_);
  bool stop_ DKB_GUARDED_BY(mu_) = false;
  CondVar work_cv_;
  CondVar durable_cv_;
  std::thread flusher_;
};

/// Syncs the directory that holds `path` (a trailing '/' names the same
/// entry), so a name created or renamed there survives a power loss (POSIX
/// makes a new or renamed name durable only once its directory is synced).
Status SyncParentDirectory(const std::string& path);

}  // namespace dkb

#endif  // DKB_STORAGE_WAL_H_
