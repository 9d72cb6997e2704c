#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

using lfp::LfpStrategy;

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

class TestbedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = Testbed::Create();
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    tb_ = std::move(*tb);
  }

  void Consult(const std::string& text) {
    Status s = tb_->Consult(text);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  QueryResult Query(const std::string& goal, QueryOptions options = {}) {
    auto outcome = tb_->Query(goal, options);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? std::move(outcome->result) : QueryResult{};
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(TestbedTest, AncestorOnSmallFamily) {
  Consult(workload::AncestorRules() +
          "parent(john, mary).\n"
          "parent(mary, sue).\n"
          "parent(sue, tim).\n");
  QueryResult r = Query("?- ancestor(john, W).");
  EXPECT_EQ(AnswerSet(r),
            (std::set<std::string>{"mary|", "sue|", "tim|"}));
}

TEST_F(TestbedTest, AncestorBothArgumentsFree) {
  Consult(workload::AncestorRules() +
          "parent(a, b).\n"
          "parent(b, c).\n");
  QueryResult r = Query("?- ancestor(X, Y).");
  EXPECT_EQ(AnswerSet(r),
            (std::set<std::string>{"a|b|", "b|c|", "a|c|"}));
}

TEST_F(TestbedTest, BooleanQueryCountsWitnesses) {
  Consult(workload::AncestorRules() + "parent(a, b).\nparent(b, c).\n");
  QueryResult yes = Query("?- ancestor(a, c).");
  ASSERT_EQ(yes.rows.size(), 1u);
  EXPECT_EQ(yes.rows[0][0], Value(static_cast<int64_t>(1)));
  QueryResult no = Query("?- ancestor(c, a).");
  EXPECT_EQ(no.rows[0][0], Value(static_cast<int64_t>(0)));
}

TEST_F(TestbedTest, RepeatedQueryVariable) {
  Consult("cyc(X, Y) :- e(X, Y).\n"
          "cyc(X, Y) :- e(X, Z), cyc(Z, Y).\n"
          "e(a, b).\ne(b, a).\ne(b, c).\n");
  // Nodes on a cycle: cyc(X, X).
  QueryResult r = Query("?- cyc(X, X).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"a|", "b|"}));
}

TEST_F(TestbedTest, QueryOverBasePredicateDirectly) {
  Consult("parent(a, b).\nparent(a, c).\n");
  QueryResult r = Query("?- parent(a, X).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"b|", "c|"}));
}

TEST_F(TestbedTest, StrategiesAgreeOnTree) {
  auto tree = workload::MakeFullBinaryTrees(1, 6);  // 63 nodes
  Consult(workload::AncestorRules());
  ASSERT_TRUE(tb_->DefineBase("parent", {DataType::kVarchar,
                                         DataType::kVarchar})
                  .ok());
  ASSERT_TRUE(tb_->AddFacts("parent", tree.ToTuples()).ok());

  QueryOptions semi = QueryOptions::SemiNaive();
  QueryOptions naive = QueryOptions::Naive();
  QueryOptions tc =
      QueryOptions::SemiNaive().WithStrategy(LfpStrategy::kNativeTc);

  QueryResult a = Query("?- ancestor('t0_0', W).", semi);
  QueryResult b = Query("?- ancestor('t0_0', W).", naive);
  QueryResult c = Query("?- ancestor('t0_0', W).", tc);
  EXPECT_EQ(a.rows.size(), 62u);  // all descendants of the root
  EXPECT_EQ(AnswerSet(a), AnswerSet(b));
  EXPECT_EQ(AnswerSet(a), AnswerSet(c));
}

TEST_F(TestbedTest, MagicAgreesWithUnoptimized) {
  auto tree = workload::MakeFullBinaryTrees(1, 6);
  Consult(workload::AncestorRules());
  ASSERT_TRUE(tb_->DefineBase("parent",
                              {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  ASSERT_TRUE(tb_->AddFacts("parent", tree.ToTuples()).ok());

  for (auto strategy : {LfpStrategy::kSemiNaive, LfpStrategy::kNaive,
                        LfpStrategy::kNativeTc}) {
    QueryOptions plain = QueryOptions::SemiNaive().WithStrategy(strategy);
    QueryOptions magic = QueryOptions::Magic().WithStrategy(strategy);
    // Query rooted at an interior node: magic restricts to the subtree.
    QueryResult p = Query("?- ancestor('t0_1', W).", plain);
    QueryResult m = Query("?- ancestor('t0_1', W).", magic);
    EXPECT_EQ(AnswerSet(p), AnswerSet(m))
        << "strategy " << lfp::StrategyName(strategy);
    EXPECT_EQ(p.rows.size(), 30u);  // subtree of depth 5 minus its root
  }
}

TEST_F(TestbedTest, MagicTouchesOnlyRelevantFacts) {
  auto tree = workload::MakeFullBinaryTrees(1, 8);  // 255 nodes
  Consult(workload::AncestorRules());
  ASSERT_TRUE(tb_->DefineBase("parent",
                              {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  ASSERT_TRUE(tb_->AddFacts("parent", tree.ToTuples()).ok());

  // Deep subtree: few relevant facts.
  QueryOptions magic = QueryOptions::Magic();
  auto outcome = tb_->Query("?- ancestor('t0_120', W).", magic);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->result.rows.size(), 2u);  // two children, depth 8 leaf-1
  // The magic program evaluates two cliques: magic then modified.
  int cliques = 0;
  for (const auto& ns : outcome->report.exec.nodes) {
    if (ns.is_clique) ++cliques;
  }
  EXPECT_EQ(cliques, 2);
}

TEST_F(TestbedTest, SameGeneration) {
  Consult(workload::SameGenerationRules() +
          "up(a, p1).\nup(b, p2).\n"
          "up(p1, g).\nup(p2, g).\n"
          "flat(g, g).\n"
          "down(g, p1).\ndown(g, p2).\n"
          "down(p1, a).\ndown(p2, b).\n");
  QueryResult r = Query("?- sg(a, Y).");
  // a is same-generation with a and b (via grandparent g) .
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"a|", "b|"}));
  // And with magic:
  QueryOptions magic = QueryOptions::Magic();
  QueryResult m = Query("?- sg(a, Y).", magic);
  EXPECT_EQ(AnswerSet(m), AnswerSet(r));
}

TEST_F(TestbedTest, MutuallyRecursivePredicates) {
  // even/odd distance from a start node along a list.
  Consult(
      "even(X, Y) :- edge(X, Y2), odd(Y2, Y).\n"
      "even(X, X2) :- eq(X, X2).\n"
      "odd(X, Y) :- edge(X, Y).\n"
      "odd(X, Y) :- edge(X, Z), even(Z, Y).\n"
      "eq(n0, n0).\neq(n1, n1).\neq(n2, n2).\neq(n3, n3).\n"
      "edge(n0, n1).\nedge(n1, n2).\nedge(n2, n3).\n");
  QueryResult odd = Query("?- odd(n0, Y).");
  EXPECT_EQ(AnswerSet(odd), (std::set<std::string>{"n1|", "n3|"}));
  QueryResult even = Query("?- even(n0, Y).");
  EXPECT_EQ(AnswerSet(even), (std::set<std::string>{"n0|", "n2|"}));
}

TEST_F(TestbedTest, NonLinearAncestorAgreesWithLinear) {
  auto data = workload::MakeLists(2, 20);
  for (const char* rules :
       {"anc2(X,Y) :- parent(X,Y).\nanc2(X,Y) :- anc2(X,Z), anc2(Z,Y).\n"}) {
    Consult(rules);
  }
  Consult(workload::AncestorRules());
  ASSERT_TRUE(
      tb_->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  ASSERT_TRUE(tb_->AddFacts("parent", data.ToTuples()).ok());
  for (auto strategy :
       {LfpStrategy::kSemiNaive, LfpStrategy::kNaive, LfpStrategy::kNativeTc}) {
    QueryOptions opts = QueryOptions::SemiNaive().WithStrategy(strategy);
    QueryResult linear = Query("?- ancestor('l0_0', W).", opts);
    QueryResult quad = Query("?- anc2('l0_0', W).", opts);
    EXPECT_EQ(AnswerSet(linear), AnswerSet(quad))
        << lfp::StrategyName(strategy);
    EXPECT_EQ(linear.rows.size(), 19u);
  }
}

TEST_F(TestbedTest, CyclicDataTerminates) {
  Consult(workload::AncestorRules() +
          "parent(a, b).\nparent(b, c).\nparent(c, a).\n");
  for (auto strategy :
       {LfpStrategy::kSemiNaive, LfpStrategy::kNaive, LfpStrategy::kNativeTc}) {
    QueryOptions opts = QueryOptions::SemiNaive().WithStrategy(strategy);
    QueryResult r = Query("?- ancestor(a, W).", opts);
    EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"a|", "b|", "c|"}));
  }
}

TEST_F(TestbedTest, DagData) {
  auto dag = workload::MakeDag(/*levels=*/5, /*width=*/4, /*fan_in=*/2,
                               /*seed=*/42);
  Consult(workload::AncestorRules());
  ASSERT_TRUE(
      tb_->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  ASSERT_TRUE(tb_->AddFacts("parent", dag.ToTuples()).ok());
  QueryOptions magic = QueryOptions::Magic();
  QueryResult plain = Query("?- ancestor('g0_0', W).");
  QueryResult optimized = Query("?- ancestor('g0_0', W).", magic);
  EXPECT_EQ(AnswerSet(plain), AnswerSet(optimized));
  EXPECT_GT(plain.rows.size(), 0u);
}

TEST_F(TestbedTest, WorkspaceAndStoredRulesCombine) {
  // Rule split across workspace and stored DKB: stored rule defines the
  // inner predicate, workspace rule the outer one.
  Consult("inner(X, Y) :- parent(X, Y).\nparent(a, b).\n");
  ASSERT_TRUE(tb_->UpdateStoredDkb().ok());
  tb_->ClearWorkspace();
  Consult("outer(X, Y) :- inner(X, Y).\n");
  QueryResult r = Query("?- outer(a, W).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"b|"}));
}

// A rule headed by a base predicate would make it derived as well, and its
// stored facts would stop answering: the update rejects it, naming the
// predicate, and stores nothing.
TEST_F(TestbedTest, UpdateRejectsRuleHeadedByBasePredicate) {
  Consult("e(a, b).\nf(c, d).\n");
  ASSERT_TRUE(tb_->AddRule("e(X, Y) :- f(X, Y).").ok());
  auto update = tb_->UpdateStoredDkb();
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kSemanticError);
  EXPECT_NE(update.status().message().find("base predicate e "),
            std::string::npos)
      << update.status().ToString();
  ASSERT_TRUE(tb_->ClearWorkspace().ok());
  EXPECT_EQ(AnswerSet(Query("?- e(a, W).")), (std::set<std::string>{"b|"}));
  auto idb = tb_->ExecuteSql("SELECT * FROM idbrel WHERE predname = 'e'");
  ASSERT_TRUE(idb.ok()) << idb.status().ToString();
  EXPECT_TRUE(idb->rows.empty());
}

TEST_F(TestbedTest, QueryErrors) {
  Consult(workload::AncestorRules() + "parent(a, b).\n");
  // Unknown predicate.
  EXPECT_FALSE(tb_->Query("?- nosuch(X, Y).").ok());
  // Wrong arity.
  EXPECT_FALSE(tb_->Query("?- ancestor(a).").ok());
  // Wrong constant type.
  EXPECT_FALSE(tb_->Query("?- ancestor(17, X).").ok());
}

TEST_F(TestbedTest, UnsafeRuleRejected) {
  Consult("bad(X, Y) :- parent(X, X2).\nparent(a, b).\n");
  auto outcome = tb_->Query("?- bad(a, W).");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kSemanticError);
}

TEST_F(TestbedTest, TypeConflictRejected) {
  Consult(
      "mix(X, Y) :- s(X, Y).\n"
      "mix(X, Y) :- t(X, Y).\n"
      "s(a, b).\n"
      "t(a, 3).\n");
  auto outcome = tb_->Query("?- mix(a, W).");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kTypeError);
}

TEST_F(TestbedTest, ConsultRejectsQueries) {
  EXPECT_FALSE(tb_->Consult("p(a).\n?- p(X).").ok());
}

constexpr LfpStrategy kAllStrategies[] = {
    LfpStrategy::kNaive, LfpStrategy::kSemiNaive, LfpStrategy::kNativeTc};

TEST_F(TestbedTest, RepeatedQueriesDoNotLeakTables) {
  Consult(workload::AncestorRules() + "parent(a, b).\nparent(b, c).\n");
  size_t tables_before = tb_->db().catalog().num_tables();
  for (LfpStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(lfp::StrategyName(strategy));
    for (int i = 0; i < 3; ++i) {
      Query("?- ancestor(a, W).", QueryOptions{}.WithStrategy(strategy));
      Query("?- ancestor(a, W).",
            QueryOptions::Magic().WithStrategy(strategy));
    }
    EXPECT_EQ(tb_->db().catalog().num_tables(), tables_before);
  }
}

// The LFP's relations belong to the run, so user tables that happen to carry
// the names the run uses for `anc` (its IDB relation and its #p_new
// temporary) are neither read, written nor dropped by a query.
TEST_F(TestbedTest, QueriesLeaveUserTablesOfLfpNamesAlone) {
  Consult(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
      "par(a, b).\npar(b, c).\n");
  const std::vector<std::string> tables = {"idb_anc", "#anc_new"};
  for (const std::string& table : tables) {
    ASSERT_TRUE(
        tb_->ExecuteSql("CREATE TABLE " + table + " (c0 VARCHAR, c1 VARCHAR)")
            .ok());
    ASSERT_TRUE(
        tb_->ExecuteSql("INSERT INTO " + table + " VALUES ('x', 'y')").ok());
  }
  for (LfpStrategy strategy : kAllStrategies) {
    for (bool magic : {false, true}) {
      SCOPED_TRACE(std::string(lfp::StrategyName(strategy)) +
                   (magic ? " magic" : ""));
      QueryOptions options = QueryOptions{}.WithStrategy(strategy);
      options.use_magic = magic;
      EXPECT_EQ(AnswerSet(Query("?- anc(a, W).", options)),
                (std::set<std::string>{"b|", "c|"}));
      for (const std::string& table : tables) {
        auto rows = tb_->ExecuteSql("SELECT * FROM " + table);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        EXPECT_EQ(AnswerSet(*rows), (std::set<std::string>{"x|y|"}));
      }
    }
  }
}

// Relation names resolve case-insensitively, so predicates whose names
// differ only in case cannot both be derived by one query: the run refuses
// instead of letting them share one relation.
TEST_F(TestbedTest, CaseCollidingPredicatesAreRejected) {
  Consult("ab(X) :- q(X).\naB(X) :- ab(X), r(X).\nq(a).\nq(b).\nr(a).\n");
  for (LfpStrategy strategy : kAllStrategies) {
    SCOPED_TRACE(lfp::StrategyName(strategy));
    auto outcome =
        tb_->Query("?- aB(W).", QueryOptions{}.WithStrategy(strategy));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kAlreadyExists);
  }
}

TEST_F(TestbedTest, CompilationStatsPopulated) {
  Consult(workload::AncestorRules() + "parent(a, b).\n");
  auto outcome = tb_->Query("?- ancestor(a, W).");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->report.compile.rules_relevant, 2);
  EXPECT_EQ(outcome->report.compile.preds_relevant, 1);
  EXPECT_GE(outcome->report.compile.total_us(), 0);
  EXPECT_GT(outcome->report.exec.t_total_us, 0);
  EXPECT_GE(outcome->report.exec.iterations, 1);
}

TEST_F(TestbedTest, ConstantInRuleBody) {
  Consult(
      "royal(X) :- parent(king, X).\n"
      "parent(king, will).\nparent(king, harry).\nparent(will, george).\n");
  QueryResult r = Query("?- royal(X).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"will|", "harry|"}));
}

TEST_F(TestbedTest, ConstantInRuleHead) {
  Consult(
      "labeled(crown, X) :- parent(king, X).\n"
      "parent(king, will).\n");
  QueryResult r = Query("?- labeled(L, X).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"crown|will|"}));
}

TEST_F(TestbedTest, IntegerColumns) {
  Consult(
      "bigedge(X, Y) :- weight(X, Y, W2), big(W2).\n"
      "big(10).\nbig(20).\n"
      "weight(1, 2, 10).\nweight(2, 3, 5).\nweight(3, 4, 20).\n");
  QueryResult r = Query("?- bigedge(X, Y).");
  EXPECT_EQ(AnswerSet(r), (std::set<std::string>{"1|2|", "3|4|"}));
}

}  // namespace
}  // namespace dkb::testbed
