#include <gtest/gtest.h>

#include "datalog/ast.h"
#include "datalog/parser.h"

namespace dkb::datalog {
namespace {

TEST(DatalogParserTest, ParsesRule) {
  auto rule = ParseRule("ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->head.predicate, "ancestor");
  ASSERT_EQ(rule->body.size(), 2u);
  EXPECT_EQ(rule->body[0].predicate, "parent");
  EXPECT_TRUE(rule->head.args[0].is_variable());
  EXPECT_EQ(rule->head.args[0].var, "X");
  EXPECT_FALSE(rule->is_fact());
}

TEST(DatalogParserTest, ParsesGroundFactConstants) {
  auto rule = ParseRule("parent(john, mary).");
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(rule->is_fact());
  EXPECT_EQ(rule->head.args[0].value, Value("john"));
}

TEST(DatalogParserTest, ConstantKinds) {
  auto rule = ParseRule("p(abc, 42, -7, 'Quoted Name', \"double\").");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  const auto& args = rule->head.args;
  EXPECT_EQ(args[0].value, Value("abc"));
  EXPECT_EQ(args[1].value, Value(static_cast<int64_t>(42)));
  EXPECT_EQ(args[2].value, Value(static_cast<int64_t>(-7)));
  EXPECT_EQ(args[3].value, Value("Quoted Name"));
  EXPECT_EQ(args[4].value, Value("double"));
}

TEST(DatalogParserTest, UnderscoreAndUppercaseAreVariables) {
  auto rule = ParseRule("p(X, _y, Zed) :- q(X, _y, Zed).");
  ASSERT_TRUE(rule.ok());
  for (const Term& t : rule->head.args) EXPECT_TRUE(t.is_variable());
}

TEST(DatalogParserTest, ProgramClassifiesClauses) {
  auto program = ParseProgram(
      "% the ancestor program\n"
      "ancestor(X,Y) :- parent(X,Y).\n"
      "ancestor(X,Y) :- parent(X,Z), ancestor(Z,Y).\n"
      "parent(john, mary).\n"
      "parent(mary, sue).\n"
      "?- ancestor(john, W).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->rules.size(), 2u);
  EXPECT_EQ(program->facts.size(), 2u);
  ASSERT_EQ(program->queries.size(), 1u);
  EXPECT_EQ(program->queries[0].predicate, "ancestor");
}

TEST(DatalogParserTest, FactWithVariableRejected) {
  EXPECT_FALSE(ParseProgram("parent(X, mary).").ok());
}

TEST(DatalogParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseRule("p(X Y) :- q(X).").ok());
  EXPECT_FALSE(ParseRule("p(X) :- .").ok());
  EXPECT_FALSE(ParseRule("(X) :- q(X).").ok());
  EXPECT_FALSE(ParseRule("p(X) :- q(X). extra").ok());
  EXPECT_FALSE(ParseProgram("p(a)  q(b).").ok());
  EXPECT_FALSE(ParseRule("p('unterminated).").ok());
}

TEST(DatalogParserTest, QueryParsing) {
  auto q1 = ParseQuery("?- ancestor(john, W).");
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->predicate, "ancestor");
  auto q2 = ParseQuery("ancestor(john, W)");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->args[1].var, "W");
}

TEST(DatalogAstTest, ToStringRoundTrip) {
  const char* texts[] = {
      "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).",
      "p(a, 3) :- q(a, X), r(X, 3).",
      "edge(n1, n2).",
      "p('has space', X) :- q(X).",
      // Quotes and backslashes, escaped and trailing, in both quote styles.
      R"(p('a\\b', 'it\'s', "say \"hi\"", "ends\\") :- q('\\', X).)",
  };
  for (const char* text : texts) {
    auto rule = ParseRule(text);
    ASSERT_TRUE(rule.ok()) << text;
    auto reparsed = ParseRule(rule->ToString());
    ASSERT_TRUE(reparsed.ok()) << rule->ToString();
    EXPECT_EQ(*rule, *reparsed) << text;
  }
}

TEST(DatalogAstTest, EqualityIsStructural) {
  auto a = ParseRule("p(X) :- q(X).");
  auto b = ParseRule("p(X) :- q(X).");
  auto c = ParseRule("p(Y) :- q(Y).");  // different variable names
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(*a == *c);  // no alpha-equivalence (by design)
}

TEST(DatalogAstTest, ZeroArityAtomParses) {
  auto rule = ParseRule("alarm() :- sensor(hot).");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->head.arity(), 0u);
}

TEST(DatalogParserTest, ClauseSpansCarryLineNumbers) {
  const std::string text =
      "% header comment\n"
      "\n"
      "p(X) :- q(X).\n"
      "q(a). q(b).\n"
      "?- p(W).\n"
      "r(X) :-\n"
      "    q(X),\n"
      "    not p(X).\n";
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->rules.size(), 2u);
  ASSERT_EQ(program->facts.size(), 2u);
  EXPECT_EQ(program->rules[0].span.line, 3);
  EXPECT_EQ(program->facts[0].span.line, 4);
  EXPECT_EQ(program->facts[1].span.line, 4);
  EXPECT_EQ(program->rules[1].span.line, 6);
  const SourceSpan& span = program->rules[1].span;
  EXPECT_EQ(text.substr(span.begin, span.end - span.begin),
            "r(X) :-\n    q(X),\n    not p(X).");
}

TEST(DatalogParserTest, ClausesDeepInALongProgramKeepTheirLines) {
  // One clause per line, with a blank line after every 100th: clause k
  // (0-based) starts on line k + 1 + k / 100.
  std::string text;
  constexpr int kClauses = 5000;
  for (int k = 0; k < kClauses; ++k) {
    text += "edge(n" + std::to_string(k) + ", n" + std::to_string(k + 1) +
            ").\n";
    if (k % 100 == 99) text += "\n";
  }
  text += "path(X, Y) :- edge(X, Y).\n";
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ(program->facts.size(), static_cast<size_t>(kClauses));
  for (int k : {0, 99, 100, 2500, kClauses - 1}) {
    EXPECT_EQ(program->facts[k].span.line, k + 1 + k / 100) << "clause " << k;
  }
  ASSERT_EQ(program->rules.size(), 1u);
  EXPECT_EQ(program->rules[0].span.line, kClauses + 1 + kClauses / 100);
}

}  // namespace
}  // namespace dkb::datalog
