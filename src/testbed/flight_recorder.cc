#include "testbed/flight_recorder.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/metrics.h"
#include "common/str_util.h"

namespace dkb::testbed {

namespace {

int64_t NowWallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

QueryLogEntry FlightRecorder::MakeEntry(const QueryReport& report,
                                        int64_t query_id, int64_t session_id,
                                        int64_t rows_out) {
  QueryLogEntry entry;
  entry.query_id = query_id;
  entry.session_id = session_id;
  entry.ts_us = NowWallMicros();
  entry.query = report.plan.query;
  entry.strategy = report.plan.strategy;
  entry.magic = report.plan.magic_applied;
  entry.from_cache = report.from_cache;
  entry.executed = report.executed;
  entry.rows_out = rows_out;
  entry.iterations = report.exec.iterations;
  entry.total_us = report.total_us;
  entry.batches = report.db_delta.batches;
  entry.statements_planned = report.exec.statements_planned;
  entry.shards = report.plan.shards;
  entry.phases = report.Phases();
  for (const lfp::NodeStats& node : report.exec.nodes) {
    for (size_t i = 0; i < node.delta_sizes.size(); ++i) {
      QueryLogEntry::LfpIteration it;
      it.node = node.label;
      it.is_clique = node.is_clique;
      it.iter = static_cast<int64_t>(i) + 1;
      it.delta_rows = node.delta_sizes[i];
      if (i < node.new_sizes.size()) it.new_rows = node.new_sizes[i];
      if (i < node.driver_rows.size()) it.driver_rows = node.driver_rows[i];
      if (i < node.rhs_us.size()) it.rhs_us = node.rhs_us[i];
      if (i < node.term_us.size()) it.term_us = node.term_us[i];
      entry.lfp_iterations.push_back(std::move(it));
    }
  }
  entry.trace = report.trace;
  return entry;
}

void FlightRecorder::Record(QueryLogEntry entry) {
  metrics::GlobalMetrics().counter("dkb.recorder.recorded").Add(1);
  bool slow = false;
  std::string record;
  SlowQueryLogOptions slow_opts;
  int64_t evicted = 0;
  {
    MutexLock lock(mu_);
    slow = slow_.threshold_us >= 0 && entry.total_us > slow_.threshold_us;
    if (slow) {
      record = FormatSlowRecord(entry, slow_.json);
      slow_opts = slow_;
    }
    ring_.push_back(std::move(entry));
    while (ring_.size() > capacity_) {
      ring_.pop_front();
      ++evicted;
    }
  }
  // Metrics registry lookup and counter bump happen after unlock: the
  // registry has its own lock, and nesting it under mu_ on every eviction
  // would serialize concurrent recorders for no benefit.
  if (evicted > 0) {
    metrics::GlobalMetrics().counter("dkb.recorder.evicted").Add(evicted);
  }
  if (!slow) return;
  // Emit outside the lock: a user-provided sink may be arbitrarily slow.
  metrics::GlobalMetrics().counter("dkb.slowlog.records").Add(1);
  if (slow_opts.sink) {
    slow_opts.sink(record);
  } else {
    std::fprintf(stderr, "%s\n", record.c_str());
  }
}

void FlightRecorder::AnnotateBytes(int64_t query_id, int64_t bytes_sent,
                                   int64_t bytes_received) {
  MutexLock lock(mu_);
  // Scan newest-first: the entry being annotated almost always is the one
  // just recorded at the back of the ring.
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if (it->query_id == query_id) {
      it->bytes_sent = bytes_sent;
      it->bytes_received = bytes_received;
      return;
    }
  }
}

std::vector<QueryLogEntry> FlightRecorder::Snapshot() const {
  MutexLock lock(mu_);
  return std::vector<QueryLogEntry>(ring_.begin(), ring_.end());
}

void FlightRecorder::SetCapacity(size_t capacity) {
  MutexLock lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

size_t FlightRecorder::capacity() const {
  MutexLock lock(mu_);
  return capacity_;
}

size_t FlightRecorder::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

void FlightRecorder::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
}

void FlightRecorder::SetSlowQueryLog(SlowQueryLogOptions options) {
  MutexLock lock(mu_);
  slow_ = std::move(options);
}

SlowQueryLogOptions FlightRecorder::slow_query_log() const {
  MutexLock lock(mu_);
  return slow_;
}

std::string FlightRecorder::FormatSlowRecord(const QueryLogEntry& entry,
                                             bool json) {
  if (json) {
    std::string out = "{\"slow_query\": true";
    out += ", \"query_id\": " + std::to_string(entry.query_id);
    out += ", \"session_id\": " + std::to_string(entry.session_id);
    out += ", \"ts_us\": " + std::to_string(entry.ts_us);
    out += ", \"total_us\": " + std::to_string(entry.total_us);
    out += ", \"strategy\": \"" + JsonEscape(entry.strategy) + "\"";
    out += std::string(", \"magic\": ") + (entry.magic ? "true" : "false");
    out += std::string(", \"from_cache\": ") +
           (entry.from_cache ? "true" : "false");
    out += ", \"rows_out\": " + std::to_string(entry.rows_out);
    out += ", \"iterations\": " + std::to_string(entry.iterations);
    out += ", \"query\": \"" + JsonEscape(entry.query) + "\"}";
    return out;
  }
  std::string out = "[dkb slow query]";
  out += " id=" + std::to_string(entry.query_id);
  out += " session=" + std::to_string(entry.session_id);
  out += " total_us=" + std::to_string(entry.total_us);
  out += " strategy=" + entry.strategy;
  out += std::string(" magic=") + (entry.magic ? "1" : "0");
  out += std::string(" cache=") + (entry.from_cache ? "1" : "0");
  out += " rows=" + std::to_string(entry.rows_out);
  out += " iterations=" + std::to_string(entry.iterations);
  out += " query=\"" + JsonEscape(entry.query) + "\"";
  return out;
}

}  // namespace dkb::testbed
