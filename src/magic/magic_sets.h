#ifndef DKB_MAGIC_MAGIC_SETS_H_
#define DKB_MAGIC_MAGIC_SETS_H_

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "magic/adornment.h"

namespace dkb::magic {

/// Restricts the rewrite to a precomputed achievable adornment set — the
/// static analyzer's adornment-dataflow result (km/analysis). When given,
/// the rewrite refuses to expand any (predicate, adornment) pair outside
/// `allowed`: no worklist visit, no magic rules, no modified rules for it.
///
/// Invariant: `allowed` must be a superset of the adornments reachable from
/// the query over the rewritten rule set (the analyzer guarantees this by
/// running the identical left-to-right SIP dataflow over the same rules);
/// otherwise the output program would reference undefined adorned
/// predicates.
struct AdornmentFilter {
  std::set<std::pair<std::string, Adornment>> allowed;

  bool Allows(const std::string& pred, const Adornment& a) const {
    return allowed.count({pred, a}) > 0;
  }
};

/// Which information-passing rewrite to apply (paper §2.5 lists both).
enum class MagicVariant {
  kGeneralized,    // magic rules re-join the rule prefix each time
  kSupplementary,  // prefix joins are materialized once in sup_i predicates
                   // shared by the magic rules and the modified rule
};

/// Output of the generalized magic sets rewrite (Beeri & Ramakrishnan; the
/// paper's Optimizer, §3.2.5).
struct MagicRewrite {
  /// Adorned ("modified") rules, magic rules, and the magic seed fact.
  std::vector<datalog::Rule> rules;
  /// The query rewritten onto the adorned predicate.
  datalog::Atom adorned_query;
  /// False when the rewrite is the identity (no bound argument in the query
  /// or query over a base predicate): `rules` then holds the input rules
  /// and `adorned_query` the input query.
  bool rewritten = false;
  /// Predicates introduced as magic predicates / adorned (modified-rule)
  /// predicates; used to attribute evaluation time (paper Fig 14).
  std::set<std::string> magic_predicates;
  std::set<std::string> adorned_predicates;
  /// Materialized prefix-join predicates (supplementary variant only).
  std::set<std::string> supplementary_predicates;
};

/// The magic seed fact of `query`: m_q^a(c1, ..., ck), the query's
/// constants in argument order under the magic name of its adornment. The
/// rewrite emits it as its one empty-body rule; a program precompiled for
/// one goal is rebound to another of the same form by regenerating it.
datalog::Rule MagicSeed(const datalog::Atom& query);

/// Applies the generalized magic sets transformation with a left-to-right
/// sideways-information-passing strategy (full SIPS: every evaluated body
/// atom binds all of its variables for the atoms to its right).
///
/// `derived` is the set of predicates defined by `rules`; every other
/// predicate in a body is a base predicate. Body atoms whose adornment is
/// all-free map to an adorned predicate with no magic guard (their full
/// relation is computed, as in the standard transformation).
///
/// With MagicVariant::kSupplementary, guarded rules with more than one body
/// atom additionally materialize supplementary predicates:
///
///   sup_r_1(V1) :- m_p(..), B1'.        magic rule for B2: m_q(..) :- sup_r_1.
///   sup_r_i(Vi) :- sup_r_{i-1}, Bi'.    ...
///   p'(..)      :- sup_r_{n-1}, Bn'.
///
/// where Vi keeps every variable bound so far that is still needed by a
/// later atom or the head. If a supplementary predicate would be nullary
/// the rewrite falls back to the generalized scheme for that rule.
///
/// `filter`, when non-null, bounds the adornments the rewrite may generate
/// (see AdornmentFilter); a query whose own adornment is filtered out
/// degrades to the identity rewrite.
Result<MagicRewrite> ApplyGeneralizedMagicSets(
    const std::vector<datalog::Rule>& rules, const datalog::Atom& query,
    const std::set<std::string>& derived,
    MagicVariant variant = MagicVariant::kGeneralized,
    const AdornmentFilter* filter = nullptr);

}  // namespace dkb::magic

#endif  // DKB_MAGIC_MAGIC_SETS_H_
