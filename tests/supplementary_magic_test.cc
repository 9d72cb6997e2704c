#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datalog/parser.h"
#include "magic/magic_sets.h"
#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::magic {
namespace {

std::vector<datalog::Rule> Rules(const std::string& text) {
  auto program = datalog::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program->rules;
}

datalog::Atom Goal(const std::string& text) {
  auto atom = datalog::ParseQuery(text);
  EXPECT_TRUE(atom.ok());
  return *atom;
}

bool HasRule(const MagicRewrite& rewrite, const std::string& text) {
  auto rule = datalog::ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return std::find(rewrite.rules.begin(), rewrite.rules.end(), *rule) !=
         rewrite.rules.end();
}

TEST(SupplementaryTest, SameGenerationStructure) {
  auto rules = Rules(
      "sg(X,Y) :- flat(X,Y).\n"
      "sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).\n");
  auto rewrite = ApplyGeneralizedMagicSets(rules, Goal("sg(a, W)"), {"sg"},
                                           MagicVariant::kSupplementary);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  EXPECT_TRUE(rewrite->rewritten);
  // Single-atom exit rule keeps the plain modified form.
  EXPECT_TRUE(HasRule(*rewrite, "sg__bf(X, Y) :- m_sg__bf(X), flat(X, Y)."));
  // The recursive rule materializes two supplementary stages:
  //   sup1_1(X, U) :- m_sg__bf(X), up(X, U).
  //   m_sg__bf(U)  :- sup1_1(X, U).
  //   sup1_2(X, V) :- sup1_1(X, U), sg__bf(U, V).
  //   sg__bf(X, Y) :- sup1_2(X, V), down(V, Y).
  EXPECT_EQ(rewrite->supplementary_predicates.size(), 2u);
  EXPECT_TRUE(
      HasRule(*rewrite, "sup1_1__sg__bf(U, X) :- m_sg__bf(X), up(X, U)."));
  EXPECT_TRUE(HasRule(*rewrite, "m_sg__bf(U) :- sup1_1__sg__bf(U, X)."));
  EXPECT_TRUE(HasRule(
      *rewrite,
      "sup1_2__sg__bf(V, X) :- sup1_1__sg__bf(U, X), sg__bf(U, V)."));
  EXPECT_TRUE(
      HasRule(*rewrite, "sg__bf(X, Y) :- sup1_2__sg__bf(V, X), down(V, Y)."));
}

TEST(SupplementaryTest, SingleAtomBodiesUnchanged) {
  auto rules = Rules(
      "anc(X,Y) :- par(X,Y).\n"
      "anc(X,Y) :- par(X,Z), anc(Z,Y).\n");
  auto generalized = ApplyGeneralizedMagicSets(
      rules, Goal("anc(a, W)"), {"anc"}, MagicVariant::kGeneralized);
  auto supplementary = ApplyGeneralizedMagicSets(
      rules, Goal("anc(a, W)"), {"anc"}, MagicVariant::kSupplementary);
  ASSERT_TRUE(generalized.ok() && supplementary.ok());
  // The two-atom recursive rule gets one sup stage; the exit rule is
  // untouched, and no rule body is ever longer than two atoms.
  EXPECT_EQ(supplementary->supplementary_predicates.size(), 1u);
  for (const datalog::Rule& rule : supplementary->rules) {
    EXPECT_LE(rule.body.size(), 2u) << rule.ToString();
  }
}

TEST(SupplementaryTest, IdentityCasesMatchGeneralized) {
  auto rules = Rules("anc(X,Y) :- par(X,Y).\n");
  auto rewrite = ApplyGeneralizedMagicSets(rules, Goal("anc(X, Y)"), {"anc"},
                                           MagicVariant::kSupplementary);
  ASSERT_TRUE(rewrite.ok());
  EXPECT_FALSE(rewrite->rewritten);
}

// ---------------------------------------------------------------------------
// End-to-end equivalence
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

TEST(SupplementaryTest, SameGenerationAnswersMatch) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(workload::SameGenerationRules()).ok());
  // Reporting tree: up/down over a depth-6 binary tree, flat at the root.
  auto tree = workload::MakeFullBinaryTrees(1, 6);
  std::vector<Tuple> up;
  std::vector<Tuple> down;
  for (const auto& [mgr, emp] : tree.edges) {
    up.push_back({Value(emp), Value(mgr)});
    down.push_back({Value(mgr), Value(emp)});
  }
  for (const char* pred : {"up", "down", "flat"}) {
    ASSERT_TRUE(
        tb->DefineBase(pred, {DataType::kVarchar, DataType::kVarchar}).ok());
  }
  ASSERT_TRUE(tb->AddFacts("up", up).ok());
  ASSERT_TRUE(tb->AddFacts("down", down).ok());
  ASSERT_TRUE(tb->AddFacts("flat", {{Value("t0_0"), Value("t0_0")}}).ok());

  std::string goal = "?- sg('t0_31', W).";
  testbed::QueryOptions plain = testbed::QueryOptions::SemiNaive();
  testbed::QueryOptions magic = testbed::QueryOptions::Magic();
  testbed::QueryOptions sup = testbed::QueryOptions::SupplementaryMagic();

  auto p = tb->Query(goal, plain);
  auto m = tb->Query(goal, magic);
  auto s = tb->Query(goal, sup);
  ASSERT_TRUE(p.ok() && m.ok() && s.ok())
      << p.status().ToString() << m.status().ToString()
      << s.status().ToString();
  EXPECT_EQ(AnswerSet(p->result), AnswerSet(m->result));
  EXPECT_EQ(AnswerSet(p->result), AnswerSet(s->result));
  EXPECT_EQ(p->result.rows.size(), 32u);  // all leaves
}

TEST(SupplementaryTest, AllStrategiesAgreeOnAncestor) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(workload::AncestorRules()).ok());
  ASSERT_TRUE(
      tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  ASSERT_TRUE(
      tb->AddFacts("parent",
                   workload::MakeFullBinaryTrees(1, 6).ToTuples())
          .ok());
  testbed::QueryOptions sup = testbed::QueryOptions::SupplementaryMagic();
  std::set<std::string> reference;
  for (auto strategy :
       {lfp::LfpStrategy::kSemiNaive, lfp::LfpStrategy::kNaive,
        lfp::LfpStrategy::kNativeTc}) {
    sup.WithStrategy(strategy);
    auto outcome = tb->Query("?- ancestor('t0_1', W).", sup);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto answers = AnswerSet(outcome->result);
    if (reference.empty()) {
      reference = answers;
      EXPECT_EQ(reference.size(), 30u);
    } else {
      EXPECT_EQ(answers, reference) << lfp::StrategyName(strategy);
    }
  }
}

TEST(SupplementaryTest, ThreeDerivedAtomsChain) {
  // A rule with three guarded derived atoms produces two sup stages and
  // still evaluates correctly.
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(
                    "hop(X,Y) :- e(X,Y).\n"
                    "hop(X,Y) :- e(X,Z), hop(Z,Y).\n"
                    "tri(X,Y) :- hop(X,A), hop(A, B), hop(B, Y).\n"
                    "e(n1, n2).\ne(n2, n3).\ne(n3, n4).\ne(n4, n5).\n")
                  .ok());
  testbed::QueryOptions sup = testbed::QueryOptions::SupplementaryMagic();
  auto with_sup = tb->Query("?- tri(n1, W).", sup);
  auto without = tb->Query("?- tri(n1, W).");
  ASSERT_TRUE(with_sup.ok()) << with_sup.status().ToString();
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(AnswerSet(with_sup->result), AnswerSet(without->result));
  EXPECT_EQ(AnswerSet(with_sup->result),
            (std::set<std::string>{"n4|", "n5|"}));
}

}  // namespace
}  // namespace dkb::magic
