#ifndef DKB_LFP_EVAL_CONTEXT_H_
#define DKB_LFP_EVAL_CONTEXT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "km/codegen.h"
#include "lfp/evaluator.h"
#include "rdbms/database.h"

namespace dkb::lfp {

/// The relations one LFP run writes, owned by the run instead of made in
/// the catalog by SQL DDL: IDB relations, naive's #p_new and #p_diff,
/// binding tables and semi-naive's windows, built unversioned with `shards`
/// shards and freed with this object. Every statement of the run resolves
/// names() before the catalog, so it never touches a catalog table of the
/// same name. Each node gets its own set that `inherits` the IDB relations.
class RunRelations {
 public:
  explicit RunRelations(size_t shards, exec::NamedSources inherits = {})
      : shards_(shards), names_(std::move(inherits)) {}

  /// The empty relation `name`: built on first use, cleared on later ones;
  /// AlreadyExists if another name differing only in case is bound.
  Result<ScanSource*> Empty(const std::string& name, const Schema& schema);

  /// Binds `source` under its name and keeps it until this set is freed;
  /// AlreadyExists if the name (case-insensitively) is bound.
  Status Add(std::unique_ptr<ScanSource> source);

  /// The relation bound to `name`, or null.
  ScanSource* Find(const std::string& name) const;

  const exec::NamedSources& names() const { return names_; }

 private:
  size_t shards_;
  exec::NamedSources names_;
  std::vector<std::unique_ptr<ScanSource>> owned_;
};

/// Shared machinery for the per-node evaluators: executes statements
/// against the DBMS and attributes wall-clock time to the paper's cost
/// buckets (temp-table management / RHS evaluation / termination check).
/// Every statement resolves the node's `relations` before the catalog.
class EvalContext {
 public:
  EvalContext(Database* db, ExecutionStats* stats, RunRelations* relations)
      : db_(db), stats_(stats), relations_(relations) {}

  Database* db() { return db_; }
  ExecutionStats* stats() { return stats_; }
  RunRelations& relations() { return *relations_; }

  /// Trace span of the node currently being evaluated; the clique
  /// evaluators hang per-iteration spans off it. Null = tracing off.
  trace::TraceSpan* span() const { return span_; }
  void set_span(trace::TraceSpan* span) { span_ = span; }

  /// The node's per-iteration record (NodeStats::delta_sizes and the
  /// semi-naive counts and times), filled by the clique evaluators; the
  /// driver adds the node's label and totals after the node.
  NodeStats& node() { return node_; }

  /// Temp-table management: DELETE-all and table copies.
  Status Temp(const std::string& sql);

  /// Rule-body (or differential) evaluation.
  Status Rhs(const std::string& sql);

  /// Binds and plans a rule-body statement (an INSERT ... SELECT or a
  /// SELECT) for repeated runs (RHS bucket: the planning every execution of
  /// the statement used to repeat).
  Result<PlannedStatement> Plan(const std::string& sql);

  /// Runs a planned rule-body statement; a SELECT keeps its rows in the
  /// statement's batches().
  Status Rhs(PlannedStatement* statement);

  /// Termination-check work (set differences and counts).
  Status Term(const std::string& sql);
  Result<int64_t> TermCount(const std::string& count_sql);

  /// RunRelations::Empty on the node's relations (temp bucket).
  Result<ScanSource*> Temporary(const std::string& name, const Schema& schema);

  /// What statements of this node read as `name`: the run's relation, else
  /// the catalog's stored table.
  Result<ScanSource*> Source(const std::string& name);

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
  /// relation, or into the head's #p_new temporary when `into_new` is set
  /// (naive's recompute; the caller must have created #p_new).
  Status EvalExitRules(const km::QueryProgram& program,
                       const km::ProgramNode& node, size_t node_index,
                       bool into_new = false);

 private:
  Database* db_;
  ExecutionStats* stats_;
  RunRelations* relations_;
  trace::TraceSpan* span_ = nullptr;
  NodeStats node_;
};

}  // namespace dkb::lfp

#endif  // DKB_LFP_EVAL_CONTEXT_H_
