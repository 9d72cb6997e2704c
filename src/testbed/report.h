#ifndef DKB_TESTBED_REPORT_H_
#define DKB_TESTBED_REPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "exec/plan.h"
#include "km/compiler.h"
#include "lfp/evaluator.h"

namespace dkb::testbed {

/// One named phase timing, t_<name> of a phase of the paper's Table 4
/// (km::CompilationStats::kPhases) or Table 5 (lfp::ExecutionStats::kPhases).
struct PhaseTiming {
  std::string name;
  int64_t micros = 0;
};

/// Static summary of the compiled query program (the EXPLAIN side of a
/// report: what would run, independent of whether it did).
struct PlanSummary {
  std::string query;            // the goal as written
  std::string strategy;         // lfp::StrategyName of the evaluation mode
  bool magic_applied = false;   // the rewrite actually changed the rules
  int parallelism = 1;          // LFP wavefront knob as resolved at Query()
  int64_t shards = 1;           // catalog default shard count at Query()
  int64_t rules_relevant = 0;
  int64_t rules_pruned = 0;

  struct Node {
    std::string label;  // predicates defined, comma-joined
    bool is_clique = false;
    int64_t exit_rules = 0;
    int64_t recursive_rules = 0;
  };
  std::vector<Node> nodes;    // program order
  std::string final_select;   // answer-retrieval SQL
};

/// Unified observability record for one D/KB query: phase timings matching
/// the paper's tables, per-node LFP statistics with per-iteration delta
/// cardinalities, the DBMS counter deltas attributable to the query, and —
/// when tracing was requested — the full hierarchical span tree.
///
/// Move-only (it may own a TraceContext).
struct QueryReport {
  /// Flight-recorder identity: the id assigned by FlightRecorder::NextQueryId
  /// (0 when recording is off) and the session that ran the query (0 = the
  /// testbed itself). sys.lfp_iterations joins to sys.query_log on query_id.
  int64_t query_id = 0;
  int64_t session_id = 0;
  /// On a precompiled-cache hit, the cached program's summary: its counts
  /// and magic decision, with every timing zero.
  km::CompilationStats compile;
  lfp::ExecutionStats exec;      // zeros when only compiled (ExplainMode::kPlan)
  bool from_cache = false;       // compiled program came from the query cache
  bool executed = false;         // false for compile-only (EXPLAIN) queries
  int64_t total_us = 0;          // wall time of the whole Query() call
  exec::ExecStatsSnapshot db_delta;  // DBMS counter deltas for this query
  PlanSummary plan;
  /// Span tree; non-null only when the query ran with tracing
  /// (QueryOptions::collect_trace or ExplainMode::kAnalyze). Shared, not
  /// unique: the flight recorder's query-log entry keeps a reference to
  /// the same settled context instead of deep-copying the tree on every
  /// traced query.
  std::shared_ptr<trace::TraceContext> trace;

  /// Compilation then execution phases in table order; execution entries
  /// are present only when the query executed.
  std::vector<PhaseTiming> Phases() const;

  /// Human-readable EXPLAIN (plan only) / EXPLAIN ANALYZE (plan + timings,
  /// per-node iterations and delta sizes, counters, trace tree) rendering.
  std::string ExplainText() const;

  /// The whole report as one JSON object (schema documented in DESIGN.md
  /// "Observability").
  std::string ToJson() const;

  /// Chrome trace-event JSON for the span tree; empty when no trace was
  /// collected. Load in chrome://tracing or Perfetto.
  std::string ChromeTrace() const;
};

}  // namespace dkb::testbed

#endif  // DKB_TESTBED_REPORT_H_
