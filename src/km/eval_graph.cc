#include "km/eval_graph.h"

#include <map>

#include "km/analysis/stratify.h"
#include "km/scc.h"

namespace dkb::km {

Result<EvaluationOrder> BuildEvaluationOrder(
    const std::vector<datalog::Rule>& rules,
    const std::set<std::string>& derived) {
  EvaluationOrder order;

  // Stratification is checked up front by the shared analysis pass (the
  // static analyzer reports it as DKB-E001 earlier in the pipeline; this
  // call is the backstop for direct BuildEvaluationOrder users).
  DKB_RETURN_IF_ERROR(analysis::CheckStratified(rules));

  Pcg pcg;
  std::map<std::string, std::vector<const datalog::Rule*>> rules_by_head;
  for (const datalog::Rule& rule : rules) {
    pcg.AddRule(rule);
    rules_by_head[rule.head.predicate].push_back(&rule);
    for (const datalog::Atom& atom : rule.body) {
      if (!atom.is_builtin() && derived.count(atom.predicate) == 0) {
        order.base_predicates.insert(atom.predicate);
      }
    }
  }

  for (const std::string& pred : derived) {
    if (rules_by_head.count(pred) == 0) {
      return Status::SemanticError("derived predicate " + pred +
                                   " has no defining rule");
    }
  }

  // Tarjan returns components callees-first, which is the evaluation order.
  std::vector<std::vector<std::string>> components =
      StronglyConnectedComponents(pcg);

  for (const std::vector<std::string>& component : components) {
    // Skip components that define no derived predicate (pure EDB nodes).
    bool any_derived = false;
    for (const std::string& p : component) {
      if (derived.count(p) > 0) any_derived = true;
    }
    if (!any_derived) continue;
    // Mixed EDB/IDB components are impossible: EDB predicates have no
    // outgoing PCG edges, so they are always singleton components.
    for (const std::string& p : component) {
      if (derived.count(p) == 0) {
        return Status::Internal("component mixes base and derived: " + p);
      }
    }

    EvalNode node;
    if (IsRecursiveComponent(pcg, component)) {
      node.kind = EvalNode::Kind::kClique;
      node.clique.predicates = component;
      std::set<std::string> members(component.begin(), component.end());
      for (const std::string& p : component) {
        for (const datalog::Rule* rule : rules_by_head[p]) {
          bool recursive = false;
          for (const datalog::Atom& atom : rule->body) {
            if (members.count(atom.predicate) > 0) recursive = true;
          }
          if (recursive) {
            node.clique.recursive_rules.push_back(*rule);
          } else {
            node.clique.exit_rules.push_back(*rule);
          }
        }
      }
    } else {
      node.kind = EvalNode::Kind::kPredicate;
      node.predicate = component[0];
      for (const datalog::Rule* rule : rules_by_head[component[0]]) {
        node.rules.push_back(*rule);
      }
    }
    for (const std::string& p : component) {
      order.derived_predicates.insert(p);
    }
    order.nodes.push_back(std::move(node));
  }

  return order;
}

}  // namespace dkb::km
