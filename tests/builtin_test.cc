// Built-in comparison predicates in rule bodies: parsing, safety, typing,
// and evaluation across every strategy.

#include <gtest/gtest.h>

#include <set>

#include "datalog/parser.h"
#include "km/type_checker.h"
#include "testbed/testbed.h"

namespace dkb {
namespace {

using datalog::ParseRule;
using lfp::LfpStrategy;

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(BuiltinParseTest, InfixOperators) {
  auto rule = ParseRule(
      "p(X, Y) :- e(X, Y), X < Y, Y <= 10, X >= 2, Y > X, X != 5, Y = Y.");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ASSERT_EQ(rule->body.size(), 7u);
  EXPECT_FALSE(rule->body[0].is_builtin());
  EXPECT_EQ(rule->body[1].predicate, "<");
  EXPECT_EQ(rule->body[2].predicate, "<=");
  EXPECT_EQ(rule->body[3].predicate, ">=");
  EXPECT_EQ(rule->body[4].predicate, ">");
  EXPECT_EQ(rule->body[5].predicate, "!=");
  EXPECT_EQ(rule->body[6].predicate, "=");
}

TEST(BuiltinParseTest, PrologInequality) {
  auto rule = ParseRule("p(X) :- e(X, Y), X \\= Y.");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->body[1].predicate, "!=");
}

TEST(BuiltinParseTest, ConstantsOnEitherSide) {
  auto rule = ParseRule("p(X) :- w(X, C), C > 100, 'abc' != X.");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_TRUE(rule->body[1].args[1].is_constant());
  EXPECT_TRUE(rule->body[2].args[0].is_constant());
}

TEST(BuiltinParseTest, ToStringRoundTrip) {
  auto rule = ParseRule("p(X, Y) :- e(X, Y), X < Y, Y != 3.");
  ASSERT_TRUE(rule.ok());
  auto reparsed = ParseRule(rule->ToString());
  ASSERT_TRUE(reparsed.ok()) << rule->ToString();
  EXPECT_EQ(*rule, *reparsed);
}

TEST(BuiltinParseTest, NegatedBuiltinRejected) {
  EXPECT_FALSE(ParseRule("p(X) :- e(X, Y), not X < Y.").ok());
}

// ---------------------------------------------------------------------------
// Semantic checks
// ---------------------------------------------------------------------------

const std::map<std::string, km::PredicateTypes> kBase = {
    {"e", {DataType::kVarchar, DataType::kVarchar}},
    {"w", {DataType::kVarchar, DataType::kInteger}},
};

TEST(BuiltinCheckTest, UnboundComparisonVariableRejected) {
  auto program = datalog::ParseProgram("p(X) :- e(X, Y2), X < Q.");
  ASSERT_TRUE(program.ok());
  auto result = km::TypeCheck(program->rules, kBase);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST(BuiltinCheckTest, MixedTypeComparisonRejected) {
  auto program = datalog::ParseProgram("p(X) :- e(X, S), w(X, N), S < N.");
  ASSERT_TRUE(program.ok());
  auto result = km::TypeCheck(program->rules, kBase);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError);
}

TEST(BuiltinCheckTest, ConstantTypeAgainstVariableRejected) {
  auto program = datalog::ParseProgram("p(X) :- w(X, N), N > 'big'.");
  ASSERT_TRUE(program.ok());
  auto result = km::TypeCheck(program->rules, kBase);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError);
}

TEST(BuiltinCheckTest, WellTypedComparisonAccepted) {
  auto program =
      datalog::ParseProgram("p(X) :- w(X, N), N > 10, X != 'skip'.");
  ASSERT_TRUE(program.ok());
  auto result = km::TypeCheck(program->rules, kBase);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

class BuiltinE2eTest : public ::testing::TestWithParam<LfpStrategy> {
 protected:
  void SetUp() override {
    auto tb = testbed::Testbed::Create();
    ASSERT_TRUE(tb.ok());
    tb_ = std::move(*tb);
  }

  QueryResult Query(const std::string& goal, bool magic = false) {
    testbed::QueryOptions opts =
        (magic ? testbed::QueryOptions::Magic()
               : testbed::QueryOptions::SemiNaive())
            .WithStrategy(GetParam());
    auto outcome = tb_->Query(goal, opts);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? std::move(outcome->result) : QueryResult{};
  }

  std::unique_ptr<testbed::Testbed> tb_;
};

TEST_P(BuiltinE2eTest, IntegerThreshold) {
  ASSERT_TRUE(tb_->Consult(
                     "heavy(X) :- weight(X, W), W > 100.\n"
                     "weight(feather, 1).\nweight(brick, 250).\n"
                     "weight(anvil, 5000).\nweight(kg, 100).\n")
                  .ok());
  EXPECT_EQ(AnswerSet(Query("?- heavy(X).")),
            (std::set<std::string>{"brick|", "anvil|"}));
}

TEST_P(BuiltinE2eTest, OrderedPairsNoDuplicates) {
  ASSERT_TRUE(tb_->Consult(
                     "pair(X, Y) :- n(X), n(Y), X < Y.\n"
                     "n(1).\nn(2).\nn(3).\n")
                  .ok());
  EXPECT_EQ(AnswerSet(Query("?- pair(X, Y).")),
            (std::set<std::string>{"1|2|", "1|3|", "2|3|"}));
}

TEST_P(BuiltinE2eTest, InequalityInRecursiveRule) {
  // Paths that never return to the start node.
  ASSERT_TRUE(tb_->Consult(
                     "away(S, Y) :- e(S, Y), S != Y.\n"
                     "away(S, Y) :- away(S, Z), e(Z, Y), Y != S.\n"
                     "e(a, b).\ne(b, c).\ne(c, a).\ne(c, d).\n")
                  .ok());
  EXPECT_EQ(AnswerSet(Query("?- away(a, W).")),
            (std::set<std::string>{"b|", "c|", "d|"}));
}

TEST_P(BuiltinE2eTest, BuiltinBeforeBindingAtom) {
  // The filter is written before the atom that binds its variables.
  ASSERT_TRUE(tb_->Consult(
                     "big(X) :- W > 10, weight(X, W).\n"
                     "weight(a, 5).\nweight(b, 50).\n")
                  .ok());
  EXPECT_EQ(AnswerSet(Query("?- big(X).")), (std::set<std::string>{"b|"}));
}

TEST_P(BuiltinE2eTest, WithMagicSets) {
  ASSERT_TRUE(tb_->Consult(
                     "reach(S, Y) :- e(S, Y), Y != stop.\n"
                     "reach(S, Y) :- reach(S, Z), e(Z, Y), Y != stop.\n"
                     "e(a, b).\ne(b, stop).\ne(b, c).\ne(c, d).\n"
                     "e(stop, z).\n")
                  .ok());
  auto plain = AnswerSet(Query("?- reach(a, W)."));
  auto magic = AnswerSet(Query("?- reach(a, W).", /*magic=*/true));
  EXPECT_EQ(plain, (std::set<std::string>{"b|", "c|", "d|"}));
  EXPECT_EQ(plain, magic);
}

TEST_P(BuiltinE2eTest, StringComparison) {
  ASSERT_TRUE(tb_->Consult(
                     "before(X, Y) :- word(X), word(Y), X < Y.\n"
                     "word(apple).\nword(beta).\nword(cherry).\n")
                  .ok());
  EXPECT_EQ(Query("?- before(X, Y).").rows.size(), 3u);
  EXPECT_EQ(AnswerSet(Query("?- before(beta, Y).")),
            (std::set<std::string>{"cherry|"}));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BuiltinE2eTest,
                         ::testing::Values(LfpStrategy::kNaive,
                                           LfpStrategy::kSemiNaive,
                                           LfpStrategy::kNativeTc),
                         [](const auto& info) {
                           std::string name = lfp::StrategyName(info.param);
                           std::string out;
                           for (char c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c)))
                               out += c;
                           }
                           return out;
                         });

TEST(BuiltinE2eSingleTest, NegationAndBuiltinTogether) {
  auto tb = testbed::Testbed::Create();
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE((*tb)->Consult(
                     "good(X) :- score(X, S), S >= 50, not banned(X).\n"
                     "score(a, 80).\nscore(b, 40).\nscore(c, 90).\n"
                     "banned(c).\n")
                  .ok());
  auto outcome = (*tb)->Query("?- good(X).");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(AnswerSet(outcome->result), (std::set<std::string>{"a|"}));
}

}  // namespace
}  // namespace dkb
