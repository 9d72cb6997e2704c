#ifndef DKB_PERFBENCH_BENCH_H_
#define DKB_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "net/server.h"
#include "testbed/testbed.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test mode: the same workloads on a short clock with fewer set-up
  /// repetitions and probe goals. Its figures are not comparable.
  bool short_mode = false;
  /// Per-run scratch directory (WAL, checkpoints), removed at exit.
  std::string scratch_dir;
  /// Where a traced run writes its per-layer JSON and Chrome trace.
  std::string out_dir;
};

/// Deterministic generator (splitmix64): the same seed yields the same
/// inputs on every platform, unlike the std distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// A list of measurements with order statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Sum() const;
  double Mean() const;
  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// One named figure of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Operations attempted and failed (error returned or wrong answer). Shared
/// by client threads.
class OpCounter {
 public:
  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  /// Records a failed operation; the first few reasons go to stderr.
  void Fail(const std::string& why);
  int64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  int64_t failed() const { return failed_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
};

/// In-memory span log of one thread. A span is a named interval around one
/// call the benchmark makes into a layer; spans of one operation share its
/// op id, and each records the span that was open when it began (its
/// cause). Nothing is written until the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t op;
    int parent;  // index in the same log, -1 for a root
  };

  explicit SpanLog(int tid) : tid_(tid) {}

  int Begin(const char* name, int64_t op);
  void End(int index);

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t op = -1)
      : log_(log), index_(log == nullptr ? -1 : log->Begin(name, op)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Durations in microseconds of every span named `name` across `logs`.
Samples SpanDurationsUs(const std::vector<const SpanLog*>& logs,
                        const std::string& name);

/// Chrome trace-event JSON ("X" events) of every span in `logs`.
std::string ChromeTrace(const std::vector<const SpanLog*>& logs);

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Fixtures (fixtures.cc)

/// Full binary tree of `nodes` nodes in heap order (node i has children
/// 2i+1 and 2i+2), as loaded into the `parent` relation.
struct Tree {
  int64_t nodes = 0;
  std::string NodeName(int64_t index) const;
  /// The goal ancestor(<index>, W).
  std::string Goal(int64_t index) const;
  /// Sorted names of every proper descendant of `index`: the answer set of
  /// ancestor(<index>, W).
  std::vector<std::string> Descendants(int64_t index) const;
  /// A uniformly random node on levels [lo, hi] (root = level 0).
  int64_t RandomNode(Rng* rng, int lo, int hi) const;
};

/// Name of node `j` (0..8) of the 8-edge chain `k` in `wpar`.
std::string ChainNode(int64_t k, int j);
/// Goal wanc(<head of chain k>, W) and its sorted answer set.
std::string ChainGoal(int64_t k);
std::vector<std::string> ChainAnswers(int64_t k);

/// A loaded testbed plus what the workload drives it through.
struct Fixture {
  std::unique_ptr<dkb::testbed::Testbed> tb;
  /// point_magic only: the in-process server the remote clients dial.
  /// Declared after tb so it stops before the testbed is destroyed.
  std::unique_ptr<dkb::net::Server> server;
  std::string address;  // "127.0.0.1:<port>" when a server runs
  std::string wal_dir;  // write_mix only
  /// Chains already committed to `wpar` (the query targets of write_mix).
  int64_t chains = 0;
};

struct FixtureSpec {
  int tree_depth = 0;       // `parent` tree; 0 = none
  int rule_base = 0;        // synthetic stored rules beside the workload's
  int initial_chains = 0;   // 8-edge `wpar` chains loaded at set-up
  bool wal = false;         // WAL with fsync and group commit
  bool server = false;      // start an in-process net::Server
};

/// Builds a fixture: generates the inputs, loads facts, commits the
/// ancestor and wanc rules (and the synthetic rule base) to the Stored DKB,
/// and opens the WAL or starts the server.
dkb::Result<Fixture> MakeFixture(const FixtureSpec& spec,
                                 const std::string& wal_dir);

/// The write operations every workload times: a fact commit (one AddFacts
/// call adding a fresh 8-edge `wpar` chain) and a rule update (AddRule of a
/// fresh rule over wanc, UpdateStoredDkb, ClearWorkspace).
class Writer {
 public:
  Writer(dkb::Client* client, int64_t first_chain, int64_t first_rule)
      : client_(client), next_chain_(first_chain), next_rule_(first_rule) {}

  /// Commits the next chain and adds the call's latency to `latency_us`;
  /// returns the chain's index, or -1 after counting a failure.
  int64_t CommitChain(OpCounter* ops, SpanLog* log, int64_t op,
                      Samples* latency_us);
  /// Commits the next rule; false after counting a failure.
  bool UpdateRule(OpCounter* ops, SpanLog* log, int64_t op,
                  Samples* latency_us);

 private:
  dkb::Client* client_;
  int64_t next_chain_;
  int64_t next_rule_;
};

/// Compares a result's first column with the expected sorted answers;
/// counts a mismatch as a failed operation.
bool CheckAnswers(const std::vector<dkb::Tuple>& rows,
                  const std::vector<std::string>& expected, OpCounter* ops,
                  const std::string& goal);

// ---------------------------------------------------------------------------
// Layer probe (layers.cc)

/// Inputs of the per-layer probe: the fixture, sample goals with their
/// known answers, and the workload's query options.
struct ProbeSpec {
  Fixture* fx = nullptr;
  std::vector<std::string> goals;
  std::vector<std::vector<std::string>> answers;
  dkb::testbed::QueryOptions options;
  std::string scan_relation;  // base relation the storage probe scans
  std::string scratch_dir;
};

/// Runs every layer's public functions on the fixture, single-threaded,
/// with spans around each call, and appends the per-layer metrics that do
/// not depend on the timed loop. Answers are checked as in the loop.
void RunLayerProbe(const ProbeSpec& spec, SpanLog* log,
                   std::vector<Metric>* out, OpCounter* ops);

/// Median server queue time (net.server_queue_p50_us) read from the
/// server's own statistics over a sessionless stats request.
double ServerQueueP50Us(const std::string& address);

// ---------------------------------------------------------------------------
// Workloads (workloads.cc)

struct RunOutput {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Human-readable facts printed before the result line (seed, sample
  /// counts, failed fraction).
  std::string detail;
  /// Spans of a traced run, for the Chrome trace file.
  std::vector<std::unique_ptr<SpanLog>> logs;
};

RunOutput RunWorkload(const Args& args);

}  // namespace perfbench

#endif  // DKB_PERFBENCH_BENCH_H_
