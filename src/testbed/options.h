#ifndef DKB_TESTBED_OPTIONS_H_
#define DKB_TESTBED_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/parallelism.h"
#include "km/stored_dkb.h"
#include "lfp/evaluator.h"

namespace dkb::testbed {

/// Configuration of a testbed instance (paper Table 1's architecture
/// parameters).
struct TestbedOptions {
  km::StoredDkb::Options stored;

  /// Flight-recorder ring size: how many completed queries sys.query_log
  /// remembers. Always on; memory is bounded by this.
  size_t flight_recorder_capacity = 256;
  /// Slow-query log: queries whose total time exceeds this emit one
  /// structured record. Negative disables (the default).
  int64_t slow_query_threshold_us = -1;
  /// Slow-query records as one-line JSON instead of key=value text.
  bool slow_query_log_json = false;
  /// Shards per stored table (1 = plain Table, the classic layout). Applied
  /// as the catalog's default shard count before any table is created, so
  /// base tables and the LFP's `#` temporaries partition identically and
  /// stay aligned for per-shard set operations. Snapshot loads restore each
  /// table's own recorded layout regardless of this value.
  size_t shards = 1;

  /// Durability directory. Empty (the default) keeps the classic in-memory
  /// testbed. When set, the directory holds the write-ahead log (dkb.wal)
  /// and the newest checkpoint (dkb.ckpt): every mutating operation is
  /// checked, logged, then applied, Checkpoint() writes a columnar image and
  /// truncates the log, and Create() recovers by loading the checkpoint and
  /// replaying the WAL tail.
  std::string wal_dir;
  /// fdatasync WAL batches before a write returns (crash durability). Off
  /// trades durability of the last few records for speed.
  bool wal_fsync = true;
  /// Coalesce concurrent commits into batched fsyncs (group commit).
  bool wal_group_commit = true;
  /// MVCC garbage collection tick: how often the background reclaimer frees
  /// row versions no pinned session can see. <= 0 disables the thread.
  int64_t vacuum_interval_ms = 100;

  TestbedOptions& WithFlightRecorderCapacity(size_t n) {
    flight_recorder_capacity = n;
    return *this;
  }
  TestbedOptions& WithSlowQueryThreshold(int64_t micros, bool json = false) {
    slow_query_threshold_us = micros;
    slow_query_log_json = json;
    return *this;
  }
  TestbedOptions& WithShards(size_t n) {
    shards = n == 0 ? 1 : n;
    return *this;
  }
  TestbedOptions& WithWalDir(std::string dir) {
    wal_dir = std::move(dir);
    return *this;
  }
  TestbedOptions& WithWalFsync(bool on) {
    wal_fsync = on;
    return *this;
  }
  TestbedOptions& WithWalGroupCommit(bool on) {
    wal_group_commit = on;
    return *this;
  }
  TestbedOptions& WithVacuumInterval(int64_t millis) {
    vacuum_interval_ms = millis;
    return *this;
  }
};

/// What a query should produce besides (or instead of) its answers.
enum class ExplainMode {
  kNone,     // run normally
  kPlan,     // compile only; the result rows are the rendered plan
  kAnalyze,  // run with tracing on; the result rows are the full report
};

/// Per-query knobs: optimization strategy and LFP evaluation method.
///
/// The named presets cover the paper's strategy matrix; the fluent
/// With* modifiers layer the orthogonal knobs (evaluation strategy,
/// precompiled-program cache, LFP parallelism) on top:
///
///   tb->Query(goal, QueryOptions::Magic().WithCache());
///   tb->Query(goal, QueryOptions::SemiNaive().WithParallelism(4));
struct QueryOptions {
  bool use_magic = false;
  /// With use_magic: materialize prefix joins in supplementary predicates
  /// (the supplementary magic sets variant of paper §2.5).
  bool supplementary = false;
  /// Overrides use_magic: let the compiler decide per query from a bounded
  /// selectivity estimate (paper conclusion #4's dynamic strategy).
  bool adaptive_magic = false;
  lfp::LfpStrategy strategy = lfp::LfpStrategy::kSemiNaive;
  /// Reuse precompiled programs for repeated query forms (paper conclusion
  /// #3): one program per goal form (km::QueryFormKey), bound to each
  /// query's constants on a hit. Adaptive magic keeps one program per goal.
  /// Cached entries are invalidated when rules defining any predicate the
  /// program depends on change; fact inserts keep them.
  bool use_cache = false;
  /// Full parallelism override for this query. When set it wins over the
  /// process-wide GlobalParallelismPolicy(). WithParallelism(n) is the
  /// shorthand that adjusts just the LFP clique parallelism within it.
  std::optional<ParallelismPolicy> policy;
  /// EXPLAIN / EXPLAIN ANALYZE behaviour (see ExplainMode).
  ExplainMode explain = ExplainMode::kNone;
  /// Collect the hierarchical span tree into QueryReport::trace without
  /// changing what the query returns. Off by default: tracing costs one
  /// pointer test per instrumentation site when disabled.
  bool collect_trace = false;

  /// Naive LFP evaluation, no magic rewrite (paper §3.3 baseline).
  static QueryOptions Naive() {
    QueryOptions o;
    o.strategy = lfp::LfpStrategy::kNaive;
    return o;
  }
  /// Semi-naive differential evaluation (the testbed default).
  static QueryOptions SemiNaive() { return QueryOptions{}; }
  /// Generalized magic sets rewrite + semi-naive (paper §2.5).
  static QueryOptions Magic() {
    QueryOptions o;
    o.use_magic = true;
    return o;
  }
  /// Supplementary magic sets variant (materialized prefix joins).
  static QueryOptions SupplementaryMagic() {
    QueryOptions o;
    o.use_magic = true;
    o.supplementary = true;
    return o;
  }
  /// Per-query compiler choice between magic and plain (conclusion #4).
  static QueryOptions Adaptive() {
    QueryOptions o;
    o.adaptive_magic = true;
    return o;
  }

  QueryOptions& WithStrategy(lfp::LfpStrategy s) {
    strategy = s;
    return *this;
  }
  QueryOptions& WithCache(bool on = true) {
    use_cache = on;
    return *this;
  }
  /// Sets the LFP clique parallelism (1 = serial, 0 = size to the global
  /// worker pool, N > 1 = at most N concurrent cliques), materializing the
  /// per-query policy from the process-wide one if not already set.
  QueryOptions& WithParallelism(int n) {
    if (!policy.has_value()) policy = GlobalParallelismPolicy();
    policy->lfp_parallelism = n;
    return *this;
  }
  /// The parallelism knobs this query runs with: the explicit per-query
  /// policy when set, otherwise the process-wide policy.
  ParallelismPolicy EffectivePolicy() const {
    if (policy.has_value()) return *policy;
    return GlobalParallelismPolicy();
  }
  QueryOptions& WithExplain(ExplainMode mode) {
    explain = mode;
    return *this;
  }
  QueryOptions& WithTrace(bool on = true) {
    collect_trace = on;
    return *this;
  }
};

}  // namespace dkb::testbed

#endif  // DKB_TESTBED_OPTIONS_H_
