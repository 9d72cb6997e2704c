#ifndef DKB_LFP_EVALUATOR_H_
#define DKB_LFP_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "km/codegen.h"
#include "rdbms/database.h"

namespace dkb::lfp {

/// Least-fixed-point evaluation strategy.
enum class LfpStrategy {
  kNaive,      // full recomputation per iteration (paper §3.3)
  kSemiNaive,  // differential evaluation (Balbin-Ramamohanarao)
  kNativeTc,   // kSemiNaive, except that a transitive-closure clique runs
               // the specialized BFS operator (paper conclusion #8)
};

const char* StrategyName(LfpStrategy strategy);

/// How to run a query program's node list (paper Fig 6's object program).
struct EvalOptions {
  /// Flight-recorder query id to stamp into ExecutionStats (observability
  /// correlation only; does not affect evaluation).
  int64_t query_id = 0;
  LfpStrategy strategy = LfpStrategy::kSemiNaive;
  /// Maximum number of mutually independent nodes (rule-graph cliques or
  /// flat rule groups) evaluated concurrently: 1 = serial (default),
  /// 0 = size to the global worker pool, N > 1 = at most N at a time.
  /// Nodes are scheduled in topological wavefronts over the predicate
  /// dependency graph, and each node's fixpoint iteration stays
  /// sequential, so the fixed point reached is identical to a serial run.
  /// Mirrors ParallelismPolicy::lfp_parallelism, which callers resolve.
  int parallelism = 1;
  /// Parent trace span for this execution; when set, relation setup,
  /// every program node (with per-iteration children), and final answer
  /// retrieval become child spans. Per-node spans are detached while their
  /// node runs and adopted in program order, so the tree is deterministic
  /// at any parallelism. Null (the default) disables tracing.
  trace::TraceSpan* span = nullptr;
};

/// Per-node timing recorded during execution; the Fig 14 bench uses the
/// labels to separate magic-rule cliques from modified-rule cliques.
struct NodeStats {
  std::string label;  // predicates defined by the node, comma-joined
  bool is_clique = false;
  int64_t t_us = 0;
  int64_t iterations = 0;
  int64_t tuples = 0;  // total tuples in the node's relations afterwards
  /// New tuples discovered per LFP iteration, summed over the node's
  /// predicates (the semi-naive delta cardinality; EXPLAIN ANALYZE shows
  /// these). Empty for non-clique nodes.
  std::vector<int64_t> delta_sizes;
  /// Semi-naive only, one entry per iteration like delta_sizes: the rows
  /// the variants' SELECTs returned, and the rows the driver touched outside
  /// SQL statements (rows routed to their home shard, rows probed, dedup-index
  /// inserts, rows appended to the IDB relation, binding-table rows
  /// cleared). Exact counts, so per-delta work is checkable without timing.
  /// Empty for the other strategies.
  std::vector<int64_t> new_sizes;
  std::vector<int64_t> driver_rows;
  /// Semi-naive only, one entry per iteration: the iteration's share of the
  /// RHS and termination buckets (ExecutionStats::t_rhs_ns / t_term_ns),
  /// each rounded to microseconds once.
  std::vector<int64_t> rhs_us;
  std::vector<int64_t> term_us;
};

/// D/KB query execution breakdown (paper §5.3.1.2, Tables 5-6).
struct ExecutionStats {
  /// Flight-recorder query id (copied from EvalOptions::query_id).
  int64_t query_id = 0;
  int64_t t_temp_us = 0;   // run relations built/cleared/freed + copies
  int64_t t_rhs_us = 0;    // evaluating rule bodies (or their differentials)
  int64_t t_term_us = 0;   // termination checks (set difference + count)
  int64_t t_final_us = 0;  // final answer retrieval
  /// The phases' buckets: RunProgram rounds each into its _us field once.
  int64_t t_temp_ns = 0, t_rhs_ns = 0, t_term_ns = 0, t_final_ns = 0;
  int64_t t_total_us = 0;
  int64_t iterations = 0;  // summed over all cliques
  int64_t answer_tuples = 0;
  /// Statements this run bound and planned: every statement of the program
  /// when the run built its ProgramInstance, plus naive's per-iteration
  /// SQL; 0 when the run reused an idle instance (a precompiled form's warm
  /// hit). Runs of planned statements count in ExecStats::statements.
  int64_t statements_planned = 0;
  std::vector<NodeStats> nodes;

  /// Table 5's phases in order.
  static constexpr PhaseField<ExecutionStats> kPhases[] = {
      {"temp", &ExecutionStats::t_temp_us, &ExecutionStats::t_temp_ns},
      {"rhs", &ExecutionStats::t_rhs_us, &ExecutionStats::t_rhs_ns},
      {"term", &ExecutionStats::t_term_us, &ExecutionStats::t_term_ns},
      {"final", &ExecutionStats::t_final_us, &ExecutionStats::t_final_ns},
  };
};

class ProgramInstance;

/// Runs the generated query program against the DBMS and returns the answer
/// relation (the run time library of paper §3.3). The one program-level
/// driver for every strategy: the run builds a ProgramInstance (its
/// relations, with no DDL, and every statement planned once), binds the
/// constants of `query` (the program's query atom bound to the goal,
/// km::BindGoal) to the seed and the final SELECT, runs the nodes in
/// topological waves through the strategy's per-node evaluator, selects the
/// answer, and cleans up, win or lose. Per-node stats are reported in
/// program order and the t_* buckets sum the per-node work (CPU-time-like
/// accounting, not wall clock, when nodes run in parallel).
///
/// With `keep` null the instance is the run's own and is freed in the
/// cleanup span. Otherwise *keep holds an idle instance to reuse when
/// ProgramInstance::ReusableFor allows (else it is replaced by a new one),
/// and after a successful run *keep holds the instance again, idle and
/// empty; after a failed run *keep is null.
Result<QueryResult> RunProgram(Database* db, const km::QueryProgram& program,
                               const datalog::Atom& query,
                               const EvalOptions& options,
                               std::unique_ptr<ProgramInstance>* keep,
                               ExecutionStats* stats);

/// RunProgram for `program.query`'s constants on an instance of its own.
Result<QueryResult> ExecuteProgram(Database* db,
                                   const km::QueryProgram& program,
                                   const EvalOptions& options,
                                   ExecutionStats* stats);

}  // namespace dkb::lfp

#endif  // DKB_LFP_EVALUATOR_H_
