#include "datalog/parser.h"

#include <cctype>
#include <cstdint>
#include <limits>

namespace dkb::datalog {

namespace {

/// Hand-rolled scanner/parser for the Horn clause syntax. Small enough that
/// a token stream abstraction would add more weight than it removes.
class ClauseParser {
 public:
  explicit ClauseParser(const std::string& input) : in_(input) {}

  Result<Program> ParseProgram() {
    Program program;
    SkipSpace();
    while (!AtEnd()) {
      size_t clause_begin = pos_;
      if (Match("?-")) {
        DKB_ASSIGN_OR_RETURN(Atom goal, ParseAtom());
        DKB_RETURN_IF_ERROR(ExpectChar('.'));
        program.queries.push_back(std::move(goal));
      } else {
        DKB_ASSIGN_OR_RETURN(Rule rule, ParseClause());
        DKB_RETURN_IF_ERROR(ExpectChar('.'));
        rule.span = SpanFrom(clause_begin);
        DKB_RETURN_IF_ERROR(Classify(std::move(rule), &program));
      }
      SkipSpace();
    }
    return program;
  }

  Result<Rule> ParseSingleRule() {
    SkipSpace();
    size_t clause_begin = pos_;
    DKB_ASSIGN_OR_RETURN(Rule rule, ParseClause());
    MatchChar('.');
    rule.span = SpanFrom(clause_begin);
    SkipSpace();
    if (!AtEnd()) return Error("unexpected trailing input");
    return rule;
  }

  Result<Atom> ParseSingleQuery() {
    SkipSpace();
    Match("?-");
    DKB_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    MatchChar('.');
    SkipSpace();
    if (!AtEnd()) return Error("unexpected trailing input");
    return atom;
  }

 private:
  static Status Classify(Rule rule, Program* program) {
    if (rule.body.empty()) {
      for (const Term& t : rule.head.args) {
        if (t.is_variable()) {
          return Status::SemanticError("fact " + rule.head.ToString() +
                                       " contains variable " + t.var);
        }
      }
      program->facts.push_back(std::move(rule));
    } else {
      program->rules.push_back(std::move(rule));
    }
    return Status::OK();
  }

  Result<Rule> ParseClause() {
    Rule rule;
    DKB_ASSIGN_OR_RETURN(rule.head, ParseAtom());
    if (rule.head.negated) {
      return Error("rule head cannot be negated");
    }
    SkipSpace();
    if (Match(":-")) {
      do {
        DKB_ASSIGN_OR_RETURN(Atom atom, ParseBodyLiteral());
        rule.body.push_back(std::move(atom));
        SkipSpace();
      } while (MatchChar(','));
    }
    return rule;
  }

  /// Body literal: an atom (optionally negated with "not " or "\+") or an
  /// infix built-in comparison ("X < Y", "Cost != 0").
  Result<Atom> ParseBodyLiteral() {
    SkipSpace();
    bool negated = false;
    if (Match("\\+")) {
      negated = true;
    } else if (in_.compare(pos_, 3, "not") == 0 && pos_ + 3 < in_.size() &&
               std::isspace(static_cast<unsigned char>(in_[pos_ + 3]))) {
      pos_ += 3;
      negated = true;
    }
    if (!negated) {
      // Try "term OP term" first; fall back to a regular atom.
      size_t save = pos_;
      Result<Atom> builtin = TryParseBuiltin();
      if (builtin.ok()) return builtin;
      pos_ = save;
    }
    DKB_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    if (atom.is_builtin()) {
      return Error("built-in comparisons cannot be negated or used as "
                   "predicates");
    }
    atom.negated = negated;
    return atom;
  }

  /// "term OP term" with OP in {<=, >=, !=, \=, <, >, =}. Fails (without
  /// consuming definitively; caller rewinds) when no operator follows the
  /// first term.
  Result<Atom> TryParseBuiltin() {
    DKB_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    SkipSpace();
    const char* op = nullptr;
    if (Match("<=")) {
      op = "<=";
    } else if (Match(">=")) {
      op = ">=";
    } else if (Match("!=") || Match("\\=")) {
      op = "!=";
    } else if (!AtEnd() && in_[pos_] == '<') {
      ++pos_;
      op = "<";
    } else if (!AtEnd() && in_[pos_] == '>') {
      ++pos_;
      op = ">";
    } else if (!AtEnd() && in_[pos_] == '=') {
      ++pos_;
      op = "=";
    } else {
      return Error("not a built-in comparison");
    }
    DKB_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    Atom atom;
    atom.predicate = op;
    atom.args = {std::move(lhs), std::move(rhs)};
    return atom;
  }

  Result<Atom> ParseAtom() {
    SkipSpace();
    Atom atom;
    DKB_ASSIGN_OR_RETURN(atom.predicate, ParsePredicateName());
    DKB_RETURN_IF_ERROR(ExpectChar('('));
    SkipSpace();
    if (MatchChar(')')) return atom;  // 0-ary predicate
    do {
      DKB_ASSIGN_OR_RETURN(Term term, ParseTerm());
      atom.args.push_back(std::move(term));
      SkipSpace();
    } while (MatchChar(','));
    DKB_RETURN_IF_ERROR(ExpectChar(')'));
    return atom;
  }

  Result<std::string> ParsePredicateName() {
    SkipSpace();
    if (AtEnd() || (!std::isalpha(Byte()) && Byte() != '_')) {
      return Error("expected predicate name");
    }
    size_t start = pos_;
    while (!AtEnd() && (std::isalnum(Byte()) || Byte() == '_')) ++pos_;
    return in_.substr(start, pos_ - start);
  }

  Result<Term> ParseTerm() {
    SkipSpace();
    if (AtEnd()) return Error("expected term");
    char c = in_[pos_];
    if (std::isupper(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (!AtEnd() && (std::isalnum(Byte()) || Byte() == '_')) ++pos_;
      return Term::Variable(in_.substr(start, pos_ - start));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < in_.size() &&
         std::isdigit(static_cast<unsigned char>(in_[pos_ + 1])))) {
      // Accumulate with an overflow check instead of std::stoll: the
      // library is no-throw by contract, and stoll throws on out-of-range
      // literals.
      const bool negative = c == '-';
      if (negative) ++pos_;
      const uint64_t max_magnitude =
          static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
          (negative ? 1 : 0);
      uint64_t magnitude = 0;
      while (!AtEnd() && std::isdigit(Byte())) {
        const uint64_t digit = Byte() - '0';
        if (magnitude > max_magnitude / 10 ||
            (magnitude == max_magnitude / 10 &&
             digit > max_magnitude % 10)) {
          return Error("integer literal out of range");
        }
        magnitude = magnitude * 10 + digit;
        ++pos_;
      }
      const int64_t value =
          negative ? static_cast<int64_t>(-magnitude)
                   : static_cast<int64_t>(magnitude);
      return Term::Constant(Value(value));
    }
    if (c == '\'' || c == '"') {
      char quote = c;
      ++pos_;
      std::string text;
      while (!AtEnd() && in_[pos_] != quote) {
        if (in_[pos_] == '\\' && pos_ + 1 < in_.size()) ++pos_;
        text += in_[pos_++];
      }
      if (AtEnd()) return Error("unterminated quoted constant");
      ++pos_;  // closing quote
      return Term::Constant(Value(std::move(text)));
    }
    if (std::islower(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (!AtEnd() && (std::isalnum(Byte()) || Byte() == '_')) ++pos_;
      return Term::Constant(Value(in_.substr(start, pos_ - start)));
    }
    return Error(std::string("unexpected character '") + c + "' in term");
  }

  void SkipSpace() {
    while (!AtEnd()) {
      if (std::isspace(Byte())) {
        ++pos_;
      } else if (in_[pos_] == '%') {
        while (!AtEnd() && in_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  unsigned char Byte() const { return static_cast<unsigned char>(in_[pos_]); }

  bool Match(const char* s) {
    SkipSpace();
    size_t len = std::char_traits<char>::length(s);
    if (in_.compare(pos_, len, s) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool MatchChar(char c) {
    SkipSpace();
    if (!AtEnd() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectChar(char c) {
    if (!MatchChar(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return Status::OK();
  }

  /// Span from `begin` to the current position. Clauses are numbered in
  /// text order, so the line count advances from the previous clause's
  /// start instead of rescanning the text: numbering a whole program is
  /// linear in its length.
  SourceSpan SpanFrom(size_t begin) {
    for (; line_pos_ < begin && line_pos_ < in_.size(); ++line_pos_) {
      if (in_[line_pos_] == '\n') ++line_;
    }
    SourceSpan span;
    span.begin = begin;
    span.end = pos_;
    span.line = line_;
    return span;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(pos_));
  }

  const std::string& in_;
  size_t pos_ = 0;
  size_t line_pos_ = 0;  // SpanFrom has counted the newlines before this
  int line_ = 1;         // line of offset line_pos_
};

}  // namespace

Result<Program> ParseProgram(const std::string& input) {
  return ClauseParser(input).ParseProgram();
}

Result<Rule> ParseRule(const std::string& input) {
  return ClauseParser(input).ParseSingleRule();
}

Result<Atom> ParseQuery(const std::string& input) {
  return ClauseParser(input).ParseSingleQuery();
}

}  // namespace dkb::datalog
