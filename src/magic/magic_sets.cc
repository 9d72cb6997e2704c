#include "magic/magic_sets.h"

#include <deque>
#include <map>

#include "magic/adornment.h"

namespace dkb::magic {

namespace {

using datalog::Atom;
using datalog::Rule;
using datalog::Term;

/// Arguments of `atom` at the 'b' positions of `a`.
std::vector<Term> BoundArgs(const Atom& atom, const Adornment& a) {
  std::vector<Term> out;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 'b') out.push_back(atom.args[i]);
  }
  return out;
}

void AddVars(const Atom& atom, std::set<std::string>* vars) {
  for (const Term& t : atom.args) {
    if (t.is_variable()) vars->insert(t.var);
  }
}

}  // namespace

namespace {

/// Builds the supplementary-variant rewrite of one guarded, multi-atom
/// adorned rule. Returns false (emitting nothing) when a supplementary
/// predicate would be nullary; the caller then falls back to the
/// generalized scheme for this rule.
///
/// `adorned_body` holds the body atoms already rewritten onto adorned
/// names; `body_adornments[i]` is the adornment of body atom i when it is a
/// guarded derived atom (empty string otherwise); `original` gives access
/// to the pre-rewrite predicate names for magic naming.
bool EmitSupplementaryRule(const Rule& original, const Atom& magic_guard,
                           const std::string& adorned_head,
                           const std::vector<Atom>& adorned_body,
                           const std::vector<Adornment>& body_adornments,
                           int rule_counter, MagicRewrite* out) {
  const size_t n = adorned_body.size();
  // Variables appearing in atoms i..n-1 or the head (computed backward).
  std::vector<std::set<std::string>> needed_after(n + 1);
  for (const Term& t : original.head.args) {
    if (t.is_variable()) needed_after[n].insert(t.var);
  }
  for (size_t i = n; i-- > 0;) {
    needed_after[i] = needed_after[i + 1];
    for (const Term& t : adorned_body[i].args) {
      if (t.is_variable()) needed_after[i].insert(t.var);
    }
  }

  std::set<std::string> bound_so_far;
  AddVars(magic_guard, &bound_so_far);

  std::vector<Rule> pending;  // only committed on success
  std::set<std::string> pending_sups;
  Atom prev = magic_guard;  // sup_{i-1}; the guard plays sup_0
  for (size_t i = 0; i < n; ++i) {
    // Magic rule for a guarded derived atom: m_q(bound args) :- sup_{i-1}.
    if (!body_adornments[i].empty()) {
      Rule magic_rule;
      magic_rule.head.predicate =
          MagicName(original.body[i].predicate, body_adornments[i]);
      magic_rule.head.args =
          BoundArgs(original.body[i], body_adornments[i]);
      magic_rule.body = {prev};
      pending.push_back(std::move(magic_rule));
    }
    AddVars(adorned_body[i], &bound_so_far);
    if (i + 1 == n) {
      // Modified rule: head :- sup_{n-1}, B'_n.
      Rule modified;
      modified.head.predicate = adorned_head;
      modified.head.args = original.head.args;
      modified.body = {prev, adorned_body[i]};
      pending.push_back(std::move(modified));
      break;
    }
    // Materialize sup_i over the variables still needed downstream.
    std::vector<std::string> keep;
    for (const std::string& v : bound_so_far) {
      if (needed_after[i + 1].count(v) > 0) keep.push_back(v);
    }
    if (keep.empty()) return false;  // nullary sup: fall back
    Atom sup;
    sup.predicate = "sup" + std::to_string(rule_counter) + "_" +
                    std::to_string(i + 1) + "__" + adorned_head;
    for (const std::string& v : keep) sup.args.push_back(Term::Variable(v));
    Rule sup_rule;
    sup_rule.head = sup;
    sup_rule.body = {prev, adorned_body[i]};
    pending.push_back(std::move(sup_rule));
    pending_sups.insert(sup.predicate);
    prev = std::move(sup);
  }

  for (Rule& rule : pending) out->rules.push_back(std::move(rule));
  out->supplementary_predicates.insert(pending_sups.begin(),
                                       pending_sups.end());
  return true;
}

}  // namespace

Rule MagicSeed(const Atom& query) {
  const Adornment adornment = AdornAtom(query, /*bound_vars=*/{});
  Rule seed;
  seed.head.predicate = MagicName(query.predicate, adornment);
  seed.head.args = BoundArgs(query, adornment);
  return seed;
}

Result<MagicRewrite> ApplyGeneralizedMagicSets(
    const std::vector<Rule>& rules, const Atom& query,
    const std::set<std::string>& derived, MagicVariant variant,
    const AdornmentFilter* filter) {
  MagicRewrite out;

  // Identity cases: base-predicate query, no constant in the query to pass
  // sideways, a query adornment outside the analyzer-supplied filter, or
  // stratified negation in the rule set (magic sets with negation requires
  // the stratification-preserving variants, which this testbed does not
  // implement — documented in DESIGN.md).
  Adornment query_adornment = AdornAtom(query, /*bound_vars=*/{});
  bool has_negation = false;
  for (const Rule& rule : rules) {
    for (const Atom& atom : rule.body) {
      if (atom.negated) has_negation = true;
    }
  }
  if (derived.count(query.predicate) == 0 || !HasBound(query_adornment) ||
      has_negation ||
      (filter != nullptr &&
       !filter->Allows(query.predicate, query_adornment))) {
    out.rules = rules;
    out.adorned_query = query;
    out.rewritten = false;
    return out;
  }

  std::map<std::string, std::vector<const Rule*>> rules_by_head;
  for (const Rule& rule : rules) {
    rules_by_head[rule.head.predicate].push_back(&rule);
  }

  // Adornment propagation worklist.
  std::set<std::pair<std::string, Adornment>> done;
  std::deque<std::pair<std::string, Adornment>> worklist;
  worklist.emplace_back(query.predicate, query_adornment);
  done.insert({query.predicate, query_adornment});
  int supplementary_rule_counter = 0;

  while (!worklist.empty()) {
    auto [pred, adornment] = worklist.front();
    worklist.pop_front();
    std::string adorned_head = AdornedName(pred, adornment);
    out.adorned_predicates.insert(adorned_head);
    const bool guarded = HasBound(adornment);
    if (guarded) out.magic_predicates.insert(MagicName(pred, adornment));

    auto rules_it = rules_by_head.find(pred);
    if (rules_it == rules_by_head.end()) continue;  // caught by typecheck
    for (const Rule* rule : rules_it->second) {
      // Bound variables: head variables at bound positions.
      std::set<std::string> bound_vars;
      for (size_t i = 0; i < adornment.size(); ++i) {
        if (adornment[i] == 'b' && rule->head.args[i].is_variable()) {
          bound_vars.insert(rule->head.args[i].var);
        }
      }

      Atom magic_guard;
      if (guarded) {
        magic_guard.predicate = MagicName(pred, adornment);
        magic_guard.args = BoundArgs(rule->head, adornment);
      }

      // First pass: adorn the body left-to-right, recording per-atom
      // adornments (empty for base or unguarded atoms) and pushing newly
      // discovered adorned predicates onto the worklist.
      std::vector<Atom> adorned_body;
      std::vector<Adornment> body_adornments;  // "" when no magic guard
      bool has_builtin = false;
      for (const Atom& atom : rule->body) {
        if (atom.is_builtin()) {
          // Comparison filters pass through untouched and bind nothing.
          adorned_body.push_back(atom);
          body_adornments.emplace_back();
          has_builtin = true;
          continue;
        }
        if (derived.count(atom.predicate) == 0) {
          adorned_body.push_back(atom);
          body_adornments.emplace_back();
          AddVars(atom, &bound_vars);
          continue;
        }
        Adornment body_ad = AdornAtom(atom, bound_vars);
        // Unreachable adornments (per the static analyzer's dataflow) are
        // never expanded: no worklist visit and no magic rule for them.
        const bool expand =
            filter == nullptr || filter->Allows(atom.predicate, body_ad);
        if (expand && done.insert({atom.predicate, body_ad}).second) {
          worklist.emplace_back(atom.predicate, body_ad);
        }
        Atom adorned_atom;
        adorned_atom.predicate = AdornedName(atom.predicate, body_ad);
        adorned_atom.args = atom.args;
        adorned_body.push_back(std::move(adorned_atom));
        body_adornments.push_back(expand && HasBound(body_ad)
                                      ? body_ad
                                      : Adornment());
        AddVars(atom, &bound_vars);
      }

      // Supplementary variant: guarded rules with several body atoms share
      // their prefix joins through sup_i predicates. Rules with comparison
      // filters keep the generalized scheme (a filter's variables may be
      // bound only after its body position, which the staged sup chain
      // cannot express).
      if (variant == MagicVariant::kSupplementary && guarded &&
          !has_builtin && rule->body.size() > 1) {
        ++supplementary_rule_counter;
        if (EmitSupplementaryRule(*rule, magic_guard, adorned_head,
                                  adorned_body, body_adornments,
                                  supplementary_rule_counter, &out)) {
          continue;
        }
      }

      // Generalized scheme: one magic rule per guarded derived atom, each
      // re-joining the guard with the rewritten prefix. Comparison filters
      // in the prefix are kept only when their variables are bound within
      // the magic rule (dropping a filter merely over-approximates the
      // magic set, which is sound).
      auto magic_prefix = [&](size_t upto) {
        std::vector<Atom> prefix;
        std::set<std::string> prefix_vars;
        if (guarded) AddVars(magic_guard, &prefix_vars);
        for (size_t j = 0; j < upto; ++j) {
          if (adorned_body[j].is_builtin()) continue;
          prefix.push_back(adorned_body[j]);
          AddVars(adorned_body[j], &prefix_vars);
        }
        for (size_t j = 0; j < upto; ++j) {
          if (!adorned_body[j].is_builtin()) continue;
          bool covered = true;
          for (const Term& t : adorned_body[j].args) {
            if (t.is_variable() && prefix_vars.count(t.var) == 0) {
              covered = false;
            }
          }
          if (covered) prefix.push_back(adorned_body[j]);
        }
        return prefix;
      };
      for (size_t i = 0; i < adorned_body.size(); ++i) {
        if (body_adornments[i].empty()) continue;
        Rule magic_rule;
        magic_rule.head.predicate =
            MagicName(rule->body[i].predicate, body_adornments[i]);
        magic_rule.head.args = BoundArgs(rule->body[i], body_adornments[i]);
        if (guarded) magic_rule.body.push_back(magic_guard);
        std::vector<Atom> prefix = magic_prefix(i);
        magic_rule.body.insert(magic_rule.body.end(), prefix.begin(),
                               prefix.end());
        out.rules.push_back(std::move(magic_rule));
      }

      // Modified rule: p^a(args) :- guard, rewritten body.
      Rule modified;
      modified.head.predicate = adorned_head;
      modified.head.args = rule->head.args;
      if (guarded) modified.body.push_back(magic_guard);
      modified.body.insert(modified.body.end(), adorned_body.begin(),
                           adorned_body.end());
      out.rules.push_back(std::move(modified));
    }
  }

  out.rules.push_back(MagicSeed(query));

  out.adorned_query.predicate =
      AdornedName(query.predicate, query_adornment);
  out.adorned_query.args = query.args;
  out.rewritten = true;
  return out;
}

}  // namespace dkb::magic
