#ifndef DKB_LFP_EVAL_CONTEXT_H_
#define DKB_LFP_EVAL_CONTEXT_H_

#include <string>
#include <vector>

#include "common/trace.h"
#include "km/codegen.h"
#include "lfp/evaluator.h"
#include "rdbms/database.h"

namespace dkb::lfp {

/// Shared machinery for the per-node evaluators: executes statements
/// against the DBMS and attributes wall-clock time to the paper's cost
/// buckets (temp-table management / RHS evaluation / termination check).
class EvalContext {
 public:
  EvalContext(Database* db, ExecutionStats* stats)
      : db_(db), stats_(stats) {}

  Database* db() { return db_; }
  ExecutionStats* stats() { return stats_; }

  /// Trace span of the node currently being evaluated; the clique
  /// evaluators hang per-iteration spans off it. Null = tracing off.
  trace::TraceSpan* span() const { return span_; }
  void set_span(trace::TraceSpan* span) { span_ = span; }

  /// Per-iteration counts recorded by the clique evaluators, harvested into
  /// NodeStats::delta_sizes / new_sizes / driver_rows after each node.
  std::vector<int64_t>& delta_sizes() { return delta_sizes_; }
  std::vector<int64_t>& new_sizes() { return new_sizes_; }
  std::vector<int64_t>& driver_rows() { return driver_rows_; }

  /// Temp-table management: CREATE/DROP/DELETE-all and table copies.
  Status Temp(const std::string& sql);

  /// Rule-body (or differential) evaluation.
  Status Rhs(const std::string& sql);

  /// Binds and plans a rule-body statement for repeated runs (RHS bucket:
  /// the planning every execution of the statement used to repeat).
  /// `sources` binds FROM-list names ahead of the catalog.
  Result<PlannedStatement> Plan(const std::string& sql,
                                const exec::NamedSources* sources);

  /// Runs a planned rule-body statement.
  Status Rhs(PlannedStatement* statement);

  /// Termination-check work (set differences and counts).
  Status Term(const std::string& sql);
  Result<int64_t> TermCount(const std::string& count_sql);

  /// CREATE TABLE `name` with the column layout of `binding`.
  Status CreateLike(const std::string& name,
                    const km::PredicateBinding& binding);

  /// CREATE TABLE `name` with an explicit schema (binding-table pipeline).
  Status CreateWithSchema(const std::string& name, const Schema& schema);

  /// Resolver that reads every body atom from its predicate's stored
  /// relation (exit rules, and naive's full recompute).
  static km::BindingResolver CanonicalResolver(
      const km::QueryProgram& program);

  /// Evaluates one rule into `target` through the run time library: plain
  /// rules become a single INSERT-new statement; rules with negated atoms
  /// run the binding-table pipeline of RuleToSqlProgram. `bind_prefix`
  /// makes the pipeline's temp names unique per call site.
  Status EvalRuleInto(const datalog::Rule& rule,
                      const km::BindingResolver& resolver,
                      const std::string& target,
                      const std::string& bind_prefix);

  /// Evaluates the exit rules of `node`, the program's node `node_index`:
  /// a seed INSERT for an empty body, the precompiled INSERT-new select when
  /// the compiler produced one, and otherwise the binding-table pipeline
  /// over the canonical relations. Each rule inserts into its head's IDB
  /// table, or into the head's #p_new temporary when `into_new` is set
  /// (naive's per-iteration recompute).
  Status EvalExitRules(const km::QueryProgram& program,
                       const km::ProgramNode& node, size_t node_index,
                       bool into_new = false);

  /// DELETE FROM `name` (attributed to temp management).
  Status Clear(const std::string& name);

  /// INSERT INTO `dst` SELECT * FROM `src` (a full table copy).
  Status Copy(const std::string& dst, const std::string& src);

  Status Drop(const std::string& name);

  /// Live rows of a table, read from storage without a SQL statement (not
  /// attributed; NodeStats diagnostics). The IDB tables it counts are
  /// written only by the running query, so this equals their COUNT(*).
  Result<int64_t> Count(const std::string& name);

 private:
  Database* db_;
  ExecutionStats* stats_;
  trace::TraceSpan* span_ = nullptr;
  std::vector<int64_t> delta_sizes_;
  std::vector<int64_t> new_sizes_;
  std::vector<int64_t> driver_rows_;
};

}  // namespace dkb::lfp

#endif  // DKB_LFP_EVAL_CONTEXT_H_
