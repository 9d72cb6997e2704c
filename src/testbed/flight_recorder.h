#ifndef DKB_TESTBED_FLIGHT_RECORDER_H_
#define DKB_TESTBED_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.h"
#include "testbed/report.h"

namespace dkb::testbed {

/// One completed query as remembered by the flight recorder: the fields a
/// post-hoc observer needs, flattened out of the QueryReport. Phase timings
/// keep the paper's Table 4/5 order; per-iteration LFP deltas are kept as
/// their own sub-records so sys.lfp_iterations can expose one row each.
struct QueryLogEntry {
  int64_t query_id = 0;    // monotonic per recorder, assigned at Query()
  int64_t session_id = 0;  // 0 = the testbed itself, >0 = Session id
  int64_t ts_us = 0;       // wall-clock micros since Unix epoch, at completion
  std::string query;       // the goal as written
  std::string strategy;    // LFP strategy name
  bool magic = false;      // magic rewrite actually changed the rules
  bool from_cache = false;
  bool executed = false;   // false for EXPLAIN (compile-only) queries
  int64_t rows_out = 0;
  int64_t iterations = 0;  // summed over all cliques
  int64_t total_us = 0;
  int64_t batches = 0;     // row batches drained at plan roots (DBMS delta)
  /// Statements the run bound and planned (lfp ExecutionStats); 0 on a
  /// precompiled form's warm hit.
  int64_t statements_planned = 0;
  int64_t shards = 1;      // catalog default shard count when the query ran
  /// Wire traffic attributed to this query, annotated after the fact by the
  /// network server (AnnotateBytes); both stay 0 for in-process queries.
  /// For a batched request the whole request/response frame is attributed
  /// to each query in the batch (the frame is the unit that crossed the
  /// wire).
  int64_t bytes_sent = 0;      // response frame bytes (server -> client)
  int64_t bytes_received = 0;  // request frame bytes (client -> server)
  std::vector<PhaseTiming> phases;  // Table-4 then Table-5 order

  struct LfpIteration {
    std::string node;  // predicates defined, comma-joined
    bool is_clique = false;
    int64_t iter = 0;  // 1-based iteration number within the node
    int64_t delta_rows = 0;
    /// lfp::NodeStats::new_sizes / driver_rows / rhs_us / term_us of the
    /// iteration; empty (NULL in sys.lfp_iterations) for strategies that do
    /// not count them.
    std::optional<int64_t> new_rows;
    std::optional<int64_t> driver_rows;
    std::optional<int64_t> rhs_us;
    std::optional<int64_t> term_us;
  };
  std::vector<LfpIteration> lfp_iterations;

  /// The query's settled trace context; null unless the query ran with
  /// tracing. Shared with QueryReport::trace (no per-query tree copy or
  /// string rendering on the record path) — sys.query_log snapshots and
  /// renders it on read. The context is immutable once the query returns.
  std::shared_ptr<const trace::TraceContext> trace;
};

/// Slow-query log configuration. Disabled by default; when a recorded
/// query's total_us exceeds `threshold_us`, exactly one structured record
/// (one line, text or JSON) is written to the sink.
struct SlowQueryLogOptions {
  int64_t threshold_us = -1;  // < 0 disables the log
  bool json = false;          // one-line JSON object instead of key=value
  /// Receives the formatted record (no trailing newline). Null writes the
  /// record plus '\n' to stderr.
  std::function<void(const std::string&)> sink;
};

/// Always-on ring buffer of the last N completed queries (the testbed's
/// flight recorder). Memory is bounded: the ring holds at most `capacity`
/// entries; traced entries share the query's settled TraceContext rather
/// than copying the span tree.
///
/// Thread safety: Record/Snapshot/SetCapacity take a short mutex;
/// NextQueryId is a lone atomic increment. Queries from concurrent sessions
/// record into the same ring.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  /// Monotonic query-id source; ids start at 1.
  int64_t NextQueryId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one completed query, evicting the oldest entry when the ring
  /// is full, and emits a slow-query record if the entry crossed the
  /// configured threshold.
  void Record(QueryLogEntry entry) DKB_EXCLUDES(mu_);

  /// Flattens a finished QueryReport into a QueryLogEntry (shared by the
  /// testbed recording hook and tests).
  static QueryLogEntry MakeEntry(const QueryReport& report, int64_t query_id,
                                 int64_t session_id, int64_t rows_out);

  /// Fills in the wire-traffic columns of an already-recorded entry (the
  /// network server learns the response size only after the query has been
  /// recorded). No-op when the entry has rotated out of the ring.
  void AnnotateBytes(int64_t query_id, int64_t bytes_sent,
                     int64_t bytes_received) DKB_EXCLUDES(mu_);

  /// Oldest-first copy of the ring.
  std::vector<QueryLogEntry> Snapshot() const DKB_EXCLUDES(mu_);

  /// Shrinks/grows the ring; excess oldest entries are dropped immediately.
  void SetCapacity(size_t capacity) DKB_EXCLUDES(mu_);
  size_t capacity() const DKB_EXCLUDES(mu_);
  size_t size() const DKB_EXCLUDES(mu_);
  void Clear() DKB_EXCLUDES(mu_);

  void SetSlowQueryLog(SlowQueryLogOptions options) DKB_EXCLUDES(mu_);
  SlowQueryLogOptions slow_query_log() const DKB_EXCLUDES(mu_);

  /// The one-line record the slow-query log emits for `entry` (both forms
  /// escape the query as a JSON string).
  static std::string FormatSlowRecord(const QueryLogEntry& entry, bool json);

 private:
  std::atomic<int64_t> next_id_{1};
  /// Guards the ring, its capacity, and the slow-log options. Held only for
  /// queue surgery and config copies; slow-log emission and metrics updates
  /// happen outside it (see Record).
  mutable Mutex mu_;
  size_t capacity_ DKB_GUARDED_BY(mu_);
  std::deque<QueryLogEntry> ring_ DKB_GUARDED_BY(mu_);
  SlowQueryLogOptions slow_ DKB_GUARDED_BY(mu_);
};

}  // namespace dkb::testbed

#endif  // DKB_TESTBED_FLIGHT_RECORDER_H_
