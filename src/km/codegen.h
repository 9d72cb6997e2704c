#ifndef DKB_KM_CODEGEN_H_
#define DKB_KM_CODEGEN_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "km/eval_graph.h"
#include "km/rule_sql.h"
#include "km/type_checker.h"

namespace dkb::km {

/// How a predicate maps to its relation: a stored edb_ table or a run's idb_.
struct PredicateBinding {
  std::string pred;
  std::string table;
  std::vector<std::string> columns;
  PredicateTypes types;
  bool is_base = false;

  RelationBinding AsRelation() const { return {table, columns, types}; }

  Schema RelationSchema() const;  // one typed column per argument
};

/// A rule plus its pre-generated body SELECT. Seed facts (empty body; see
/// SeedInsertSql) and rules with negated atoms (evaluated through the
/// binding-table pipeline, see RuleToSqlProgram) have an empty select_sql.
struct CompiledRule {
  datalog::Rule rule;
  std::string select_sql;
};

/// One semi-naive variant of a recursive rule (paper §3.3/§4(i)): body
/// position `delta_pos` reads the last iteration's delta, earlier clique
/// members the current relation, later ones the relation before the last
/// delta. The last statement of `sql` is the SELECT DISTINCT of the
/// variant's head rows (after the binding-table INSERTs of a rule with
/// negation); the run time library absorbs its rows into the head's IDB
/// relation itself. It reads the delta and the previous relation by the
/// names DeltaTableName and PrevTableName, which the run time library binds
/// to windows over the IDB relations.
struct RuleVariant {
  size_t rule = 0;       // index into ProgramNode::recursive_rules
  size_t delta_pos = 0;  // body position that reads the delta
  RuleSqlProgram sql;
};

/// One entry of the generated program, mirroring the evaluation order list.
struct ProgramNode {
  bool is_clique = false;
  std::vector<std::string> predicates;
  /// Non-recursive nodes: all defining rules. Cliques: exit rules only.
  std::vector<CompiledRule> exit_rules;
  /// Cliques: recursive rules, as naive's recompute and the
  /// transitive-closure matcher read them.
  std::vector<datalog::Rule> recursive_rules;
  /// Cliques: every recursive rule's semi-naive variants, in rule order and
  /// then body order. Their SQL is generated here, once per program, as the
  /// paper's preprocessor compiled the embedded SQL once per query; the run
  /// time library binds and plans each statement once per program instance
  /// (lfp/instance.h).
  std::vector<RuleVariant> variants;

  /// The node's predicates, comma-joined: its label in NodeStats, trace
  /// span names and the plan summary.
  std::string Label() const;
};

/// The "object program" the Knowledge Manager hands to the run time library
/// (the analogue of the paper's generated-C code fragment; see DESIGN.md
/// substitution #2). Contains everything needed to evaluate the query:
/// relation bindings, per-node rules with generated SQL, and the final
/// answer query.
///
/// The program is generic in the goal's constants: the magic seed and the
/// final SELECT take them as `?` parameters (QueryParameters), so one
/// program, and one planned run of it, serves every goal of the form.
struct QueryProgram {
  datalog::Atom query;  // effective query atom (adorned when magic is used)
  std::map<std::string, PredicateBinding> bindings;
  std::vector<ProgramNode> nodes;
  /// The answer SELECT; `?` stands for each constant of `query`.
  std::string final_select;
  std::vector<std::string> answer_columns;  // query variable names, in order
  bool boolean_query = false;  // ground query: final_select is COUNT(*)

  /// Every SQL text in the program, for the t_comp "compile & link" pass.
  std::vector<std::string> AllSqlTexts() const;
};

/// Generates the query program from the evaluation order and inferred types
/// (paper §3.2.6).
Result<QueryProgram> GenerateProgram(
    const EvaluationOrder& order,
    const std::map<std::string, PredicateTypes>& derived_types,
    const std::map<std::string, PredicateTypes>& base_types,
    const datalog::Atom& query);

/// Generates the final answer SELECT of `program` for `query` over the
/// query predicate's binding: one projection per distinct variable (the
/// answer columns), one `column = ?` conjunct per constant and one
/// conjunct per repeated variable, and COUNT(*) for a ground query.
/// GenerateProgram ends with it. The constants' types are checked here;
/// their values are the statement's parameters (QueryParameters).
Status GenerateFinalSelect(const datalog::Atom& query, QueryProgram* program);

/// The parameter values of a program run for `query` (the program's query
/// atom bound to a goal, see BindGoal): its constants in argument order.
/// They are the magic seed's head arguments (magic::MagicSeed binds exactly
/// the constant positions, in order) and the final SELECT's `?`s.
std::vector<Value> QueryParameters(const datalog::Atom& query);

/// The INSERT ... VALUES of seed fact `seed` (an empty-body rule: the magic
/// seed, the only one a program holds) into `table`, with a `?` per head
/// argument: the run binds QueryParameters to them.
std::string SeedInsertSql(const datalog::Rule& seed, const std::string& table);

/// `sql` with each `?` outside string literals replaced by the SQL literal
/// of the next of `values`: how a parameterized statement reads for one
/// goal (the EXPLAIN plan summary shows the final SELECT this way).
std::string InlineParameters(const std::string& sql,
                             const std::vector<Value>& values);

}  // namespace dkb::km

#endif  // DKB_KM_CODEGEN_H_
