#include "km/analysis/analyzer.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "exec/expr.h"
#include "km/pcg.h"
#include "magic/adornment.h"
#include "sql/ast.h"

namespace dkb::km::analysis {

namespace {

using datalog::Atom;
using datalog::HeadPredicates;
using datalog::Rule;
using datalog::Term;

// ---------------------------------------------------------------------------
// Unsatisfiable-body detection
// ---------------------------------------------------------------------------

/// Maps a built-in comparison predicate to the SQL comparison operator so
/// constant/constant atoms can be folded through the executor's expression
/// evaluator (the same folding the SQL layer applies).
sql::CompareOp ToCompareOp(const std::string& predicate) {
  if (predicate == "<") return sql::CompareOp::kLt;
  if (predicate == "<=") return sql::CompareOp::kLe;
  if (predicate == ">") return sql::CompareOp::kGt;
  if (predicate == ">=") return sql::CompareOp::kGe;
  if (predicate == "=") return sql::CompareOp::kEq;
  return sql::CompareOp::kNe;  // "!="
}

/// Folds a comparison between two constants: true iff the filter passes.
bool FoldConstantComparison(const std::string& predicate, const Value& lhs,
                            const Value& rhs) {
  exec::BoundComparison cmp(
      ToCompareOp(predicate),
      std::make_unique<exec::BoundLiteral>(lhs),
      std::make_unique<exec::BoundLiteral>(rhs));
  return cmp.EvaluateBool(Tuple{});
}

/// Union-find over variable names (for X = Y chains).
class VarUnion {
 public:
  const std::string& Find(const std::string& v) {
    auto it = parent_.find(v);
    if (it == parent_.end()) it = parent_.emplace(v, v).first;
    if (it->second == v) return it->first;
    it->second = Find(it->second);  // path compression
    return it->second;
  }
  void Union(const std::string& a, const std::string& b) {
    std::string ra = Find(a), rb = Find(b);
    if (ra != rb) parent_[ra] = rb;
  }

 private:
  std::map<std::string, std::string> parent_;
};

/// Per-variable-class constraints accumulated from built-in filters.
struct VarConstraints {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool has_eq = false;
  Value eq;
  std::set<Value> neq;
};

/// Returns a human-readable reason when the rule body is provably
/// unsatisfiable after constant folding of its built-in comparisons, or ""
/// when no contradiction is found. Sound but incomplete: variable/variable
/// orderings between distinct variables are not tracked.
std::string UnsatisfiableReason(const Rule& rule) {
  VarUnion classes;
  // First pass: merge equality classes so later constraints land on roots.
  for (const Atom& atom : rule.body) {
    if (!atom.is_builtin() || atom.predicate != "=") continue;
    if (atom.args[0].is_variable() && atom.args[1].is_variable()) {
      classes.Union(atom.args[0].var, atom.args[1].var);
    }
  }

  std::map<std::string, VarConstraints> by_root;
  for (const Atom& atom : rule.body) {
    if (!atom.is_builtin()) continue;
    const Term& l = atom.args[0];
    const Term& r = atom.args[1];
    if (l.is_constant() && r.is_constant()) {
      if (!FoldConstantComparison(atom.predicate, l.value, r.value)) {
        return "constant comparison " + atom.ToString() + " is always false";
      }
      continue;
    }
    if (l.is_variable() && r.is_variable()) {
      const std::string& rl = classes.Find(l.var);
      const std::string& rr = classes.Find(r.var);
      if (rl == rr && (atom.predicate == "<" || atom.predicate == ">" ||
                       atom.predicate == "!=")) {
        return atom.ToString() + " compares a variable against itself";
      }
      continue;  // orderings between distinct variables: not tracked
    }
    // Normalize to var OP const.
    std::string op = atom.predicate;
    const Term* var = &l;
    const Term* cst = &r;
    if (l.is_constant()) {
      var = &r;
      cst = &l;
      if (op == "<") op = ">";
      else if (op == "<=") op = ">=";
      else if (op == ">") op = "<";
      else if (op == ">=") op = "<=";
    }
    VarConstraints& c = by_root[classes.Find(var->var)];
    const Value& v = cst->value;
    if (op == "=") {
      if (c.has_eq && c.eq != v) {
        return var->var + " is required to equal both " + c.eq.ToString() +
               " and " + v.ToString();
      }
      c.has_eq = true;
      c.eq = v;
    } else if (op == "!=") {
      c.neq.insert(v);
    } else if (v.is_int()) {
      int64_t k = v.as_int();
      if (op == "<") c.hi = std::min(c.hi, k - 1);
      else if (op == "<=") c.hi = std::min(c.hi, k);
      else if (op == ">") c.lo = std::max(c.lo, k + 1);
      else if (op == ">=") c.lo = std::max(c.lo, k);
    }
    // Ordering against a string constant: not tracked (sound).
  }

  for (auto& [root, c] : by_root) {
    if (c.lo > c.hi) {
      return "integer constraints on " + root + " are contradictory (" +
             "empty interval [" + std::to_string(c.lo) + ", " +
             std::to_string(c.hi) + "])";
    }
    if (c.has_eq) {
      if (c.neq.count(c.eq) > 0) {
        return root + " is required to both equal and differ from " +
               c.eq.ToString();
      }
      if (c.eq.is_int() &&
          (c.eq.as_int() < c.lo || c.eq.as_int() > c.hi)) {
        return root + " = " + c.eq.ToString() +
               " violates its integer bounds";
      }
    }
    // Finite interval fully excluded by != constants.
    if (c.lo != std::numeric_limits<int64_t>::min() &&
        c.hi != std::numeric_limits<int64_t>::max() &&
        c.hi - c.lo < 1024) {
      int64_t excluded = 0;
      for (const Value& v : c.neq) {
        if (v.is_int() && v.as_int() >= c.lo && v.as_int() <= c.hi) {
          ++excluded;
        }
      }
      if (excluded == c.hi - c.lo + 1) {
        return "every integer in [" + std::to_string(c.lo) + ", " +
               std::to_string(c.hi) + "] is excluded for " + root;
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Adornment dataflow (mirrors the SIP of magic/magic_sets.cc)
// ---------------------------------------------------------------------------

void AddVars(const Atom& atom, std::set<std::string>* vars) {
  for (const Term& t : atom.args) {
    if (t.is_variable()) vars->insert(t.var);
  }
}

std::set<std::pair<std::string, std::string>> ComputeAchievableAdornments(
    const std::vector<Rule>& rules, const Atom& goal,
    const std::set<std::string>& derived) {
  std::set<std::pair<std::string, std::string>> done;
  if (derived.count(goal.predicate) == 0) return done;

  std::map<std::string, std::vector<const Rule*>> rules_by_head;
  for (const Rule& rule : rules) {
    rules_by_head[rule.head.predicate].push_back(&rule);
  }

  std::deque<std::pair<std::string, magic::Adornment>> worklist;
  magic::Adornment goal_ad = magic::AdornAtom(goal, /*bound_vars=*/{});
  done.insert({goal.predicate, goal_ad});
  worklist.emplace_back(goal.predicate, goal_ad);

  while (!worklist.empty()) {
    auto [pred, adornment] = worklist.front();
    worklist.pop_front();
    auto it = rules_by_head.find(pred);
    if (it == rules_by_head.end()) continue;
    for (const Rule* rule : it->second) {
      // An arity mismatch between caller and head is a semantic error the
      // type checker reports; the dataflow just skips the rule.
      if (rule->head.args.size() != adornment.size()) continue;
      std::set<std::string> bound_vars;
      for (size_t i = 0; i < adornment.size(); ++i) {
        if (adornment[i] == 'b' && rule->head.args[i].is_variable()) {
          bound_vars.insert(rule->head.args[i].var);
        }
      }
      for (const Atom& atom : rule->body) {
        if (atom.is_builtin()) continue;  // filters bind nothing
        if (derived.count(atom.predicate) == 0) {
          AddVars(atom, &bound_vars);
          continue;
        }
        magic::Adornment body_ad = magic::AdornAtom(atom, bound_vars);
        if (done.insert({atom.predicate, body_ad}).second) {
          worklist.emplace_back(atom.predicate, body_ad);
        }
        AddVars(atom, &bound_vars);
      }
    }
  }
  return done;
}

}  // namespace

AnalysisResult AnalyzeProgram(const AnalyzerInput& input,
                              const AnalyzerOptions& options) {
  AnalysisResult result;
  result.rules = input.rules;
  const std::set<std::string> defined = HeadPredicates(input.rules);

  // Pass 1: syntactic duplicate elimination (keep the first occurrence).
  if (options.prune_duplicates) {
    std::vector<Rule> unique;
    for (Rule& rule : result.rules) {
      auto it = std::find(unique.begin(), unique.end(), rule);
      if (it != unique.end()) {
        std::string where =
            it->span.valid() ? " at line " + std::to_string(it->span.line)
                             : "";
        result.engine.ReportRule(
            kCodeDuplicateRule, Severity::kWarning, rule,
            "rule duplicates an earlier rule" + where + "; dropped");
        continue;
      }
      unique.push_back(std::move(rule));
    }
    result.rules = std::move(unique);
  }

  // Pass 2: unsatisfiable bodies, then propagate provably-empty predicates
  // (a predicate all of whose definitions were dropped derives nothing, so
  // rules positively depending on it are unsatisfiable too).
  if (options.prune_unsatisfiable) {
    std::vector<Rule> satisfiable;
    for (Rule& rule : result.rules) {
      std::string reason = UnsatisfiableReason(rule);
      if (!reason.empty()) {
        result.engine.ReportRule(kCodeUnsatisfiableBody, Severity::kWarning,
                                 rule, "body is unsatisfiable: " + reason +
                                           "; dropped");
        continue;
      }
      satisfiable.push_back(std::move(rule));
    }
    result.rules = std::move(satisfiable);

    bool changed = true;
    while (changed) {
      changed = false;
      std::set<std::string> heads = HeadPredicates(result.rules);
      std::vector<Rule> alive;
      for (Rule& rule : result.rules) {
        std::string empty_dep;
        for (const Atom& atom : rule.body) {
          if (atom.is_builtin() || atom.negated) continue;
          if (defined.count(atom.predicate) > 0 &&
              input.base_predicates.count(atom.predicate) == 0 &&
              heads.count(atom.predicate) == 0) {
            empty_dep = atom.predicate;
            break;
          }
        }
        if (!empty_dep.empty()) {
          result.engine.ReportRule(
              kCodeUnsatisfiableBody, Severity::kWarning, rule,
              "body is unsatisfiable: " + empty_dep +
                  " is provably empty (all of its rules were dropped); "
                  "dropped");
          changed = true;
          continue;
        }
        alive.push_back(std::move(rule));
      }
      result.rules = std::move(alive);
    }
  }

  // Pass 3: definedness — every body predicate is base or rule-defined.
  if (options.check_definedness) {
    std::set<std::string> reported;
    for (const Rule& rule : result.rules) {
      for (const Atom& atom : rule.body) {
        if (atom.is_builtin()) continue;
        if (defined.count(atom.predicate) > 0) continue;
        if (input.base_predicates.count(atom.predicate) > 0) continue;
        if (!reported.insert(atom.predicate).second) continue;
        Diagnostic d;
        d.code = kCodeUndefinedPredicate;
        d.severity = Severity::kError;
        d.predicate = atom.predicate;
        d.rule_line = rule.span.line;
        d.rule_text = rule.ToString();
        d.message = "predicate " + atom.predicate +
                    " is neither defined by a rule nor a known base "
                    "predicate";
        result.engine.Report(std::move(d));
      }
    }
  }

  // Pass 4: stratification over the surviving rules.
  result.strata = ComputeStratification(result.rules);
  for (const StratificationViolation& v : result.strata.violations) {
    result.engine.ReportRule(
        kCodeUnstratified, Severity::kError, v.rule,
        "program is not stratified: " + v.negated +
            " is negated inside its own recursive clique");
  }

  // Pass 5: dead-rule elimination — rules whose head is unreachable from
  // the goal in the predicate connection graph can never contribute.
  if (options.prune_dead && input.goal != nullptr) {
    Pcg pcg;
    pcg.AddNode(input.goal->predicate);
    for (const Rule& rule : result.rules) pcg.AddRule(rule);
    std::set<std::string> live = pcg.Reachable(input.goal->predicate);
    live.insert(input.goal->predicate);
    std::vector<Rule> alive;
    for (Rule& rule : result.rules) {
      if (live.count(rule.head.predicate) == 0) {
        result.engine.ReportRule(
            kCodeDeadRule, Severity::kWarning, rule,
            "rule is dead: " + rule.head.predicate +
                " is unreachable from the query goal " +
                input.goal->ToString() + "; dropped");
        continue;
      }
      alive.push_back(std::move(rule));
    }
    result.rules = std::move(alive);
  }

  if (input.goal != nullptr && defined.count(input.goal->predicate) > 0 &&
      input.base_predicates.count(input.goal->predicate) == 0) {
    result.goal_provably_empty =
        HeadPredicates(result.rules).count(input.goal->predicate) == 0;
  }

  // Pass 6: adornment dataflow from the goal (left-to-right SIP, mirroring
  // the magic-sets rewrite), flagging predicates the rewrite cannot guard.
  if (options.compute_adornments && input.goal != nullptr) {
    std::set<std::string> derived = HeadPredicates(result.rules);
    result.adornments =
        ComputeAchievableAdornments(result.rules, *input.goal, derived);
    magic::Adornment goal_ad =
        magic::AdornAtom(*input.goal, /*bound_vars=*/{});
    if (magic::HasBound(goal_ad)) {
      std::set<std::string> flagged;
      for (const auto& [pred, adornment] : result.adornments) {
        if (adornment.empty() ||
            adornment.find('b') != std::string::npos) {
          continue;
        }
        if (!flagged.insert(pred).second) continue;
        Diagnostic d;
        d.code = kCodeInconsistentAdornment;
        d.severity = Severity::kWarning;
        d.predicate = pred;
        d.message =
            "predicate " + pred + " is reached with the all-free adornment " +
            adornment + " although the query is bound; the magic rewrite "
            "cannot restrict it (its magic predicate would be unbound) and "
            "will compute its full extension";
        result.engine.Report(std::move(d));
      }
    }
  }

  // Pass 7: cardinality annotations for the planner.
  if (options.compute_cardinality) {
    auto touch = [&result](const Atom& atom) -> PredicateCardinality& {
      PredicateCardinality& c = result.cardinality[atom.predicate];
      if (c.arity == 0) c.arity = atom.arity();
      return c;
    };
    for (const Rule& rule : result.rules) {
      touch(rule.head).num_rules += 1;
      for (const Atom& atom : rule.body) {
        if (!atom.is_builtin()) touch(atom);
      }
    }
    for (auto& [pred, c] : result.cardinality) {
      if (input.base_predicates.count(pred) > 0) {
        c.is_base = true;
        auto it = input.base_cardinalities.find(pred);
        if (it != input.base_cardinalities.end()) c.base_tuples = it->second;
        c.est_tuples =
            c.base_tuples >= 0 ? static_cast<double>(c.base_tuples) : 32.0;
      }
    }
    // Derived sizes: a few monotone sweeps of est(p) = sum over rules of
    // the product of positive body estimates, capped. Deliberately coarse —
    // the annotation seeds join-order heuristics, nothing more.
    constexpr double kCap = 1e12;
    for (int sweep = 0; sweep < 4; ++sweep) {
      for (const Rule& rule : result.rules) {
        double estimate = 1.0;
        for (const Atom& atom : rule.body) {
          if (atom.is_builtin() || atom.negated) continue;
          auto it = result.cardinality.find(atom.predicate);
          double dep = it != result.cardinality.end() ? it->second.est_tuples
                                                      : 0.0;
          estimate = std::min(kCap, estimate * std::max(1.0, dep));
        }
        PredicateCardinality& head = result.cardinality[rule.head.predicate];
        if (!head.is_base) {
          head.est_tuples = std::min(kCap, head.est_tuples + estimate);
        }
      }
    }
  }

  return result;
}

}  // namespace dkb::km::analysis
