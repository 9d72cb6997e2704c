#ifndef DKB_KM_EVAL_GRAPH_H_
#define DKB_KM_EVAL_GRAPH_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "km/pcg.h"

namespace dkb::km {

/// A clique (paper §2.2): a set of mutually-recursive predicates together
/// with the rules defining them, split into recursive rules (those whose
/// body mentions a predicate of the clique) and exit rules.
struct Clique {
  std::vector<std::string> predicates;
  std::vector<datalog::Rule> recursive_rules;
  std::vector<datalog::Rule> exit_rules;
};

/// One entry of the evaluation order list: either a clique or a single
/// non-recursive derived predicate with its defining rules.
struct EvalNode {
  enum class Kind { kClique, kPredicate };

  Kind kind = Kind::kPredicate;
  // kClique:
  Clique clique;
  // kPredicate:
  std::string predicate;
  std::vector<datalog::Rule> rules;
};

/// The evaluation order list (paper §2.3): nodes topologically sorted so
/// that every node appears after all nodes it depends on.
struct EvaluationOrder {
  std::vector<EvalNode> nodes;
  /// Derived predicates covered by `nodes`.
  std::set<std::string> derived_predicates;
  /// Base (EDB) predicates referenced by the rules.
  std::set<std::string> base_predicates;
};

/// Partitions `rules` into cliques and non-recursive derived predicates and
/// produces the evaluation order list.
///
/// `derived` lists the predicates defined by rules (everything else
/// appearing in a body is treated as a base predicate). Returns
/// SemanticError if a derived predicate has no defining rule.
Result<EvaluationOrder> BuildEvaluationOrder(
    const std::vector<datalog::Rule>& rules,
    const std::set<std::string>& derived);

}  // namespace dkb::km

#endif  // DKB_KM_EVAL_GRAPH_H_
