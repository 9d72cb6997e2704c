#include "datalog/ast.h"

#include <cctype>

namespace dkb::datalog {

namespace {

/// True if `s` can be printed as a bare Datalog symbol (lower-case start,
/// alphanumeric/underscore body).
bool IsBareSymbol(const std::string& s) {
  if (s.empty()) return false;
  if (!std::islower(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

}  // namespace

std::string Term::ToString() const {
  if (is_variable()) return var;
  if (value.is_int()) return std::to_string(value.as_int());
  if (value.is_null()) return "null";
  const std::string& s = value.as_string();
  if (IsBareSymbol(s)) return s;
  std::string out = "'";
  for (char c : s) {
    if (c == '\'' || c == '\\') out += '\\';
    out += c;
  }
  out += "'";
  return out;
}

bool IsBuiltinComparison(const std::string& predicate) {
  return predicate == "<" || predicate == "<=" || predicate == ">" ||
         predicate == ">=" || predicate == "=" || predicate == "!=";
}

std::string Atom::ToString() const {
  if (is_builtin() && args.size() == 2) {
    return args[0].ToString() + " " + predicate + " " + args[1].ToString();
  }
  std::string out = negated ? "not " + predicate : predicate;
  out += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString();
  }
  out += ")";
  return out;
}

bool Rule::is_fact() const {
  if (!body.empty()) return false;
  for (const Term& t : head.args) {
    if (t.is_variable()) return false;
  }
  return true;
}

std::string Rule::ToString() const {
  std::string out = head.ToString();
  if (!body.empty()) {
    out += " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) out += ", ";
      out += body[i].ToString();
    }
  }
  out += ".";
  return out;
}

std::set<std::string> HeadPredicates(const std::vector<Rule>& rules) {
  std::set<std::string> out;
  for (const Rule& rule : rules) out.insert(rule.head.predicate);
  return out;
}

}  // namespace dkb::datalog
