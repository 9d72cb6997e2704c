#include "km/update.h"

#include <algorithm>

#include "common/trace.h"
#include "km/pcg.h"
#include "km/type_checker.h"

namespace dkb::km {

Result<UpdatePlan> UpdateProcessor::Check(const Workspace& workspace) {
  UpdatePlan plan;
  UpdateStats& stats = plan.stats;
  const std::vector<datalog::Rule>& idb_new = workspace.rules();
  // A base predicate's facts live in its edb_ relation; a rule for it would
  // make it derived as well, and its stored facts would stop answering.
  for (const datalog::Rule& rule : idb_new) {
    if (stored_->HasBasePredicate(rule.head.predicate)) {
      return Status::SemanticError("update defines base predicate " +
                                   rule.head.predicate +
                                   " by a rule: " + rule.ToString());
    }
  }
  // Without compiled rule-storage structures the update only stores the
  // source form of the rules (paper Fig 15), so nothing else is checked.
  if (!stored_->options().compiled_rule_storage) return plan;

  // Step 1 (t_extract): gather the portion of the stored DKB the update
  // touches. The stored rules downstream of the update's predicates close
  // the composite PCG; the stored rules of the predicates that reach an
  // updated head (its upstream) are the other rules whose reachability and
  // types can change. The heads and their upstream are the affected
  // predicates. A predicate that reaches only a body predicate gains
  // nothing, because nothing below that body predicate changed.
  std::vector<datalog::Rule> composite = idb_new;
  auto merge_rules = [&composite](std::vector<datalog::Rule> more) {
    for (datalog::Rule& rule : more) {
      if (std::find(composite.begin(), composite.end(), rule) ==
          composite.end()) {
        composite.push_back(std::move(rule));
      }
    }
  };
  std::set<std::string>& affected = plan.affected;
  {
    trace::ScopedPhase phase(&stats.t_extract_ns);
    std::set<std::string> update_preds;
    for (const datalog::Rule& rule : idb_new) {
      affected.insert(rule.head.predicate);
      update_preds.insert(rule.head.predicate);
      for (const datalog::Atom& atom : rule.body) {
        update_preds.insert(atom.predicate);
      }
    }
    DKB_ASSIGN_OR_RETURN(std::vector<datalog::Rule> downstream,
                         stored_->ExtractRelevantRules(update_preds));
    merge_rules(std::move(downstream));
    DKB_ASSIGN_OR_RETURN(std::set<std::string> upstream,
                         stored_->StoredUpstream(affected));
    DKB_ASSIGN_OR_RETURN(std::vector<datalog::Rule> upstream_rules,
                         stored_->RulesForHeads(upstream));
    merge_rules(std::move(upstream_rules));
    affected.insert(upstream.begin(), upstream.end());
  }
  stats.composite_rules = static_cast<int64_t>(composite.size());
  stats.affected_preds = static_cast<int64_t>(affected.size());

  // Steps 2-3 (t_tc): transitive closure of the *composite* PCG only —
  // this is the incremental-maintenance saving the paper measures.
  Pcg pcg;
  std::set<std::string> heads;
  {
    trace::ScopedPhase phase(&stats.t_tc_ns);
    for (const datalog::Rule& rule : composite) {
      pcg.AddRule(rule);
      heads.insert(rule.head.predicate);
    }
    plan.closure = pcg.TransitiveClosure();
    stats.closure_edges = static_cast<int64_t>(plan.closure.size());
  }

  // Step 4 (t_typecheck): semantic/type check of the composite rule set.
  // Body predicates outside the composite are typed from the EDB or IDB
  // data dictionaries (upstream rules may reference derived predicates
  // whose defining rules are unaffected by this update).
  {
    trace::ScopedPhase phase(&stats.t_typecheck_ns);
    std::set<std::string> external;
    for (const datalog::Rule& rule : composite) {
      for (const datalog::Atom& atom : rule.body) {
        if (heads.count(atom.predicate) == 0) external.insert(atom.predicate);
      }
    }
    DKB_ASSIGN_OR_RETURN(auto known_types,
                         stored_->ReadEdbDictionary(external));
    std::set<std::string> missing;
    for (const std::string& p : external) {
      if (known_types.count(p) == 0) missing.insert(p);
    }
    DKB_ASSIGN_OR_RETURN(auto idb_types, stored_->ReadIdbDictionary(missing));
    for (auto& [pred, sig] : idb_types) {
      known_types.emplace(pred, std::move(sig));
    }
    for (const std::string& p : external) {
      if (known_types.count(p) == 0) {
        return Status::SemanticError(
            "update refers to unknown predicate " + p);
      }
    }
    DKB_ASSIGN_OR_RETURN(TypeCheckResult types,
                         TypeCheck(composite, known_types));
    plan.derived_types = std::move(types.derived_types);
  }
  RoundPhases(&stats);
  return plan;
}

Result<UpdateStats> UpdateProcessor::Apply(const Workspace& workspace,
                                           const UpdatePlan& plan) {
  UpdateStats stats = plan.stats;

  // Steps 5-6 (t_dict): dictionary + compiled-form maintenance of the
  // affected predicates. The other composite heads keep their types and
  // reachability. Rule storage is add-only, so reachability is merged
  // monotonically.
  if (stored_->options().compiled_rule_storage) {
    trace::ScopedPhase phase(&stats.t_dict_ns);
    std::map<std::string, PredicateTypes> affected_types;
    for (const auto& [pred, sig] : plan.derived_types) {
      if (plan.affected.count(pred) > 0) affected_types.emplace(pred, sig);
    }
    DKB_RETURN_IF_ERROR(stored_->UpsertIdbDictionaryBatch(affected_types));
    std::map<std::string, std::set<std::string>> by_from;
    for (const auto& [from, to] : plan.closure) {
      if (plan.affected.count(from) > 0) by_from[from].insert(to);
    }
    DKB_RETURN_IF_ERROR(stored_->MergeReachableBatch(by_from));
  }

  // Step 7 (t_store): store the source form of the new rules.
  {
    trace::ScopedPhase phase(&stats.t_store_ns);
    for (const datalog::Rule& rule : workspace.rules()) {
      DKB_ASSIGN_OR_RETURN(bool added, stored_->StoreRuleSource(rule));
      if (added) ++stats.rules_stored;
    }
  }
  RoundPhases(&stats);
  return stats;
}

Result<UpdateStats> UpdateProcessor::Update(const Workspace& workspace) {
  DKB_ASSIGN_OR_RETURN(UpdatePlan plan, Check(workspace));
  return Apply(workspace, plan);
}

}  // namespace dkb::km
