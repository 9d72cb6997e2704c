#ifndef DKB_DATALOG_AST_H_
#define DKB_DATALOG_AST_H_

#include <set>
#include <string>
#include <vector>

#include "common/value.h"

namespace dkb::datalog {

/// A term in an atomic formula: a variable or a constant.
///
/// Following Prolog convention, variables start with an upper-case letter or
/// '_'; everything else is a constant. The testbed handles pure,
/// function-free Horn clauses, so there are no compound terms.
struct Term {
  enum class Kind { kVariable, kConstant };

  Kind kind = Kind::kConstant;
  std::string var;  // variable name when kind == kVariable
  Value value;      // constant value when kind == kConstant

  static Term Variable(std::string name) {
    Term t;
    t.kind = Kind::kVariable;
    t.var = std::move(name);
    return t;
  }
  static Term Constant(Value v) {
    Term t;
    t.kind = Kind::kConstant;
    t.value = std::move(v);
    return t;
  }

  bool is_variable() const { return kind == Kind::kVariable; }
  bool is_constant() const { return kind == Kind::kConstant; }

  bool operator==(const Term& other) const {
    if (kind != other.kind) return false;
    return is_variable() ? var == other.var : value == other.value;
  }

  /// Datalog rendering: variable name, bare symbol, integer, or 'quoted'.
  std::string ToString() const;
};

/// True for the built-in comparison predicates usable in rule bodies:
/// "<", "<=", ">", ">=", "=", "!=".
bool IsBuiltinComparison(const std::string& predicate);

/// A predicate applied to terms: p(X, 'a', 3). In rule bodies an atom may
/// be negated ("not p(X)"); heads and queries are always positive.
/// Negation is interpreted under stratified semantics (no recursion through
/// negation; checked by the evaluation-order builder).
///
/// Bodies may also contain built-in comparison atoms, written infix
/// ("X < Y", "Z != 3") and stored with the operator as the predicate name.
/// Built-ins are filters: every variable they mention must be bound by a
/// regular positive body atom.
struct Atom {
  std::string predicate;
  std::vector<Term> args;
  bool negated = false;

  size_t arity() const { return args.size(); }

  /// True if this is a built-in comparison filter.
  bool is_builtin() const { return IsBuiltinComparison(predicate); }

  bool operator==(const Atom& other) const {
    return predicate == other.predicate && args == other.args &&
           negated == other.negated;
  }

  std::string ToString() const;
};

/// Source location of a clause within the program text it was parsed from.
/// Default-constructed (line 0) for rules built programmatically; ignored by
/// structural equality so spans never affect rule identity.
struct SourceSpan {
  int line = 0;        // 1-based line of the clause's first token
  size_t begin = 0;    // byte offset of the first token
  size_t end = 0;      // byte offset one past the final '.'

  bool valid() const { return line > 0; }
};

/// A Horn clause: head :- body. A fact is a clause with an empty body and a
/// variable-free head.
struct Rule {
  Atom head;
  std::vector<Atom> body;
  SourceSpan span;  // where the clause came from; not part of identity

  bool is_fact() const;

  bool operator==(const Rule& other) const {
    return head == other.head && body == other.body;
  }

  /// Renders "head." for facts and "head :- b1, b2." for rules; the parser
  /// accepts this output verbatim (round-trip property).
  std::string ToString() const;
};

/// A parsed D/KB input: rules, facts, and queries (goal atoms).
struct Program {
  std::vector<Rule> rules;   // proper rules (non-empty body)
  std::vector<Rule> facts;   // ground facts
  std::vector<Atom> queries;  // ?- goals
};

/// The head predicates of `rules`: the predicates they define.
std::set<std::string> HeadPredicates(const std::vector<Rule>& rules);

}  // namespace dkb::datalog

#endif  // DKB_DATALOG_AST_H_
