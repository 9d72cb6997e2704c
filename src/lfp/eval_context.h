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
  /// AlreadyExists if the name (case-insensitively) is bound. Counts into
  /// the dkb.lfp.relations_built metric (a reused instance builds none).
  Status Add(std::unique_ptr<ScanSource> source);

  /// The relation bound to `name`, or null.
  ScanSource* Find(const std::string& name) const;

  /// Empties every relation this set owns (a window becomes empty).
  void Clear();

  /// Storage the relations this set owns keep allocated (Table::ApproxBytes).
  int64_t ApproxBytes() const;

  const exec::NamedSources& names() const { return names_; }

 private:
  size_t shards_;
  exec::NamedSources names_;
  std::vector<std::unique_ptr<ScanSource>> owned_;
};

/// Shared machinery for the per-node evaluators: plans and executes
/// statements against the DBMS and attributes wall-clock time to the
/// paper's cost buckets (temp-table management / RHS evaluation /
/// termination check). Every statement resolves the node's `relations`
/// before the catalog; `params` are the run's parameter values (the goal's
/// constants, km::QueryParameters).
class EvalContext {
 public:
  EvalContext(Database* db, ExecutionStats* stats, RunRelations* relations,
              const std::vector<Value>* params)
      : db_(db), stats_(stats), relations_(relations), params_(params) {}

  Database* db() { return db_; }
  ExecutionStats* stats() { return stats_; }
  RunRelations& relations() { return *relations_; }
  const std::vector<Value>& params() const { return *params_; }

  /// Trace span of the node currently being evaluated; the clique
  /// evaluators hang per-iteration spans off it. Null = tracing off.
  trace::TraceSpan* span() const { return span_; }
  void set_span(trace::TraceSpan* span) { span_ = span; }

  /// The node's per-iteration record (NodeStats::delta_sizes and the
  /// semi-naive counts and times), filled by the clique evaluators; the
  /// driver adds the node's label and totals after the node.
  NodeStats& node() { return node_; }

  /// Statements parsed, bound, planned and run in one go (naive's
  /// per-iteration SQL), by bucket: temp-table management (DELETE-all and
  /// table copies), rule-body (or differential) evaluation, and
  /// termination work (set differences and counts). Each counts as one
  /// planned statement.
  Status Temp(const std::string& sql);
  Status Rhs(const std::string& sql);
  Status Term(const std::string& sql);
  Result<int64_t> TermCount(const std::string& count_sql);

  /// Binds and plans a rule-body statement (an INSERT or a SELECT) for
  /// repeated runs (RHS bucket; one planned statement).
  Result<PlannedStatement> Plan(const std::string& sql);

  /// True once Plan planned a statement that reads a sys.* snapshot.
  bool planned_snapshot() const { return planned_snapshot_; }

  /// Runs a planned rule-body statement; a SELECT keeps its rows in the
  /// statement's batches().
  Status Rhs(PlannedStatement* statement);

  /// RunRelations::Empty on the node's relations (temp bucket).
  Result<ScanSource*> Temporary(const std::string& name, const Schema& schema);

  /// What statements of this node read as `name`: the run's relation, else
  /// the catalog's stored table.
  Result<ScanSource*> Source(const std::string& name);

  /// Resolver that reads every body atom from its predicate's stored
  /// relation (exit rules, and naive's full recompute).
  static km::BindingResolver CanonicalResolver(
      const km::QueryProgram& program);

  /// Evaluates one rule into `target` through the run time library, its SQL
  /// generated, planned and run now: plain rules become a single INSERT-new
  /// statement; rules with negated atoms run the binding-table pipeline of
  /// RuleToSqlProgram. `bind_prefix` makes the pipeline's temp names unique
  /// per call site.
  Status EvalRuleInto(const datalog::Rule& rule,
                      const km::BindingResolver& resolver,
                      const std::string& target,
                      const std::string& bind_prefix);

 private:
  Database* db_;
  ExecutionStats* stats_;
  RunRelations* relations_;
  const std::vector<Value>* params_;
  trace::TraceSpan* span_ = nullptr;
  NodeStats node_;
  bool planned_snapshot_ = false;
};

/// The exit rules of one node, planned once: each rule becomes the
/// statements that insert its rows into its head's IDB relation, or into
/// the head's #p_new temporary for naive's recompute. A seed (empty body)
/// is km::SeedInsertSql, whose `?`s take the run's parameters; a rule
/// without negation is the precompiled INSERT-new select; a rule with
/// negation is its binding-table pipeline over the canonical relations.
class ExitRules {
 public:
  /// Plans the exit rules of `node`, the program's node `node_index`, into
  /// the IDB relations or (`into_new`) the #p_new temporaries, which must
  /// exist.
  static Result<ExitRules> Plan(EvalContext* ctx,
                                const km::QueryProgram& program,
                                const km::ProgramNode& node,
                                size_t node_index, bool into_new);

  /// Runs every statement (RHS bucket): empties the binding tables first
  /// (temp bucket) and binds each seed to the context's parameters.
  Status Run(EvalContext* ctx);

 private:
  std::vector<PlannedStatement> statements_;
  std::vector<size_t> seeds_;  // positions in statements_
  std::vector<ScanSource*> bind_tables_;
};

/// One program node's part of a ProgramInstance: what its strategy built
/// for it once (planned statements, dedup indexes, temporaries and windows
/// in the node's RunRelations) and its evaluation against them. Evaluate
/// may run any number of times; between runs the instance empties the
/// node's relations and calls Clear for the rest.
class NodeRun {
 public:
  virtual ~NodeRun() = default;

  /// Evaluates the node; returns the number of iterations.
  virtual Result<int64_t> Evaluate(EvalContext* ctx) = 0;

  /// Drops what the last Evaluate left outside the node's relations.
  virtual void Clear() {}

  /// Bytes this node keeps between runs outside its relations.
  virtual int64_t IdleBytes() const { return 0; }
};

/// A node whose only work is its exit rules, planned once: every non-clique
/// node of the SQL strategies.
Result<std::unique_ptr<NodeRun>> BuildExitRulesNode(
    EvalContext* ctx, const km::QueryProgram& program,
    const km::ProgramNode& node, size_t node_index);

}  // namespace dkb::lfp

#endif  // DKB_LFP_EVAL_CONTEXT_H_
