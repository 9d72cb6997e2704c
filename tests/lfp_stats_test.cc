// Tests for the run time library's instrumentation and iteration behaviour:
// the counters behind the paper's Tables 5/8 and Figures 12-14.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::lfp {
namespace {

std::unique_ptr<testbed::Testbed> ListTestbed(int length) {
  auto tb_or = testbed::Testbed::Create();
  EXPECT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  EXPECT_TRUE(tb->Consult(workload::AncestorRules()).ok());
  EXPECT_TRUE(
      tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  auto lists = workload::MakeLists(1, length);
  EXPECT_TRUE(tb->AddFacts("parent", lists.ToTuples()).ok());
  return tb;
}

testbed::QueryOutcome RunQuery(testbed::Testbed* tb, const std::string& goal,
                          LfpStrategy strategy, bool magic = false) {
  testbed::QueryOptions opts =
      (magic ? testbed::QueryOptions::Magic()
             : testbed::QueryOptions::SemiNaive())
          .WithStrategy(strategy);
  auto outcome = tb->Query(goal, opts);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return outcome.ok() ? std::move(*outcome) : testbed::QueryOutcome{};
}

TEST(LfpStatsTest, IterationCountMatchesChainDepth) {
  // A right-linear ancestor over a 12-node chain (11 edges): iteration k
  // derives the paths of length k+1, so the longest path arrives at
  // iteration 10 and iteration 11 finds an empty delta and stops.
  auto tb = ListTestbed(12);
  auto outcome = RunQuery(tb.get(), "?- ancestor(X, Y).",
                     LfpStrategy::kSemiNaive);
  EXPECT_EQ(outcome.result.rows.size(), 66u);  // 11+10+...+1
  EXPECT_EQ(outcome.report.exec.iterations, 11);
}

TEST(LfpStatsTest, NaiveAndSemiNaiveSameIterationCount) {
  auto tb = ListTestbed(9);
  auto semi = RunQuery(tb.get(), "?- ancestor(X, Y).", LfpStrategy::kSemiNaive);
  auto naive = RunQuery(tb.get(), "?- ancestor(X, Y).", LfpStrategy::kNaive);
  EXPECT_EQ(semi.report.exec.iterations, naive.report.exec.iterations);
}

TEST(LfpStatsTest, NonLinearRuleConvergesInLogIterations) {
  // anc(X,Y) :- anc(X,Z), anc(Z,Y) doubles path length per iteration:
  // a 16-node chain closes in ~log2(15)+2 iterations, far fewer than 15.
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(workload::AncestorRulesNonLinear()).ok());
  ASSERT_TRUE(
      tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  ASSERT_TRUE(
      tb->AddFacts("parent", workload::MakeLists(1, 16).ToTuples()).ok());
  auto outcome =
      RunQuery(tb.get(), "?- ancestor(X, Y).", LfpStrategy::kSemiNaive);
  EXPECT_EQ(outcome.result.rows.size(), 120u);  // C(16,2)
  EXPECT_LE(outcome.report.exec.iterations, 6);
  EXPECT_GE(outcome.report.exec.iterations, 4);
}

/// A clique member's node stats for `goal` over the consulted `program`.
NodeStats CliqueStats(const std::string& program, const std::string& goal,
                      size_t expected_answers) {
  auto tb_or = testbed::Testbed::Create();
  EXPECT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  EXPECT_TRUE(tb->Consult(program).ok());
  auto outcome = RunQuery(tb.get(), goal, LfpStrategy::kSemiNaive);
  EXPECT_EQ(outcome.result.rows.size(), expected_answers);
  for (const NodeStats& ns : outcome.report.exec.nodes) {
    if (ns.is_clique) return ns;
  }
  ADD_FAILURE() << "no clique node";
  return NodeStats{};
}

std::string ChainFacts(const std::string& pred, int edges) {
  std::string facts;
  for (int i = 0; i < edges; ++i) {
    facts += pred + "(n" + std::to_string(i) + ", n" +
             std::to_string(i + 1) + ").\n";
  }
  return facts;
}

// Every variant of an iteration reads the relations as the last iteration
// left them, and only then are their rows absorbed, so each iteration's
// delta is exactly the differential formulation's. Absorbing a variant's
// rows before the next variant runs reaches the same answers in different
// steps (14, 36, 49, 6, 0 on this chain).
TEST(LfpStatsTest, NonLinearDeltasFollowTheIterations) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(workload::AncestorRulesNonLinear()).ok());
  ASSERT_TRUE(
      tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  ASSERT_TRUE(
      tb->AddFacts("parent", workload::MakeLists(1, 16).ToTuples()).ok());
  auto outcome =
      RunQuery(tb.get(), "?- ancestor(X, Y).", LfpStrategy::kSemiNaive);
  EXPECT_EQ(outcome.result.rows.size(), 120u);
  ASSERT_EQ(outcome.report.exec.nodes.size(), 1u);
  const NodeStats& ns = outcome.report.exec.nodes[0];
  EXPECT_EQ(ns.iterations, 5);
  EXPECT_EQ(ns.delta_sizes, (std::vector<int64_t>{14, 25, 38, 28, 0}));
  // From iteration 2 on, both variants derive the paths one step longer
  // than the last delta; each such row is absorbed once.
  EXPECT_GT(ns.new_sizes[1], ns.delta_sizes[1]);
  EXPECT_EQ(ns.tuples, 120);
}

TEST(LfpStatsTest, MutualRecursionDeltasFollowTheIterations) {
  const NodeStats linear = CliqueStats(
      "odd(X, Y) :- edge(X, Y).\n"
      "odd(X, Y) :- edge(X, Z), even(Z, Y).\n"
      "even(X, Y) :- edge(X, Z), odd(Z, Y).\n" +
          ChainFacts("edge", 12),
      "?- odd(X, Y).", 42u);
  EXPECT_EQ(linear.label, "even,odd");
  EXPECT_EQ(linear.delta_sizes,
            (std::vector<int64_t>{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(linear.tuples, 78);

  // Non-linear: both members in one body, so variants read the current
  // and the previous relation of the other member.
  const NodeStats nonlinear = CliqueStats(
      "odd(X, Y) :- edge(X, Y).\n"
      "odd(X, Y) :- even(X, Z), odd(Z, Y).\n"
      "even(X, Y) :- odd(X, Z), odd(Z, Y).\n" +
          ChainFacts("edge", 12),
      "?- odd(X, Y).", 42u);
  EXPECT_EQ(nonlinear.delta_sizes,
            (std::vector<int64_t>{11, 10, 24, 20, 1, 0}));
  EXPECT_EQ(nonlinear.tuples, 78);
}

// An exit rule and a recursive rule both derive rows with a head constant,
// and the cycle derives again the row the exit rule stored: the clique
// holds each row once and answers as naive does.
TEST(LfpStatsTest, HeadConstantsAreAbsorbedOnce) {
  const std::string program =
      "tag(X, k) :- item(X).\n"
      "tag(Y, k) :- tag(X, k), link(X, Y).\n"
      "item(a).\nlink(a, b).\nlink(b, c).\nlink(c, a).\nlink(c, d).\n";
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(program).ok());
  auto semi = RunQuery(tb.get(), "?- tag(X, Y).", LfpStrategy::kSemiNaive);
  auto naive = RunQuery(tb.get(), "?- tag(X, Y).", LfpStrategy::kNaive);
  auto answers = [](const testbed::QueryOutcome& outcome) {
    std::vector<std::string> rows;
    for (const Tuple& row : outcome.result.rows) {
      rows.push_back(row[0].ToString() + "|" + row[1].ToString());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(answers(semi),
            (std::vector<std::string>{"a|k", "b|k", "c|k", "d|k"}));
  EXPECT_EQ(answers(semi), answers(naive));
  ASSERT_EQ(semi.report.exec.nodes.size(), 1u);
  EXPECT_EQ(semi.report.exec.nodes[0].tuples, 4);
}

TEST(LfpStatsTest, TimingBucketsArePopulated) {
  auto tb = ListTestbed(30);
  for (auto strategy : {LfpStrategy::kNaive, LfpStrategy::kSemiNaive}) {
    auto outcome = RunQuery(tb.get(), "?- ancestor(X, Y).", strategy);
    EXPECT_GT(outcome.report.exec.t_temp_us, 0) << StrategyName(strategy);
    EXPECT_GT(outcome.report.exec.t_rhs_us, 0) << StrategyName(strategy);
    EXPECT_GT(outcome.report.exec.t_term_us, 0) << StrategyName(strategy);
    EXPECT_GE(outcome.report.exec.t_total_us,
              outcome.report.exec.t_rhs_us + outcome.report.exec.t_term_us);
  }
}

TEST(LfpStatsTest, NaiveDoesMoreRhsWorkThanSemiNaive) {
  auto tb = ListTestbed(40);
  auto naive = RunQuery(tb.get(), "?- ancestor(X, Y).", LfpStrategy::kNaive);
  auto semi = RunQuery(tb.get(), "?- ancestor(X, Y).", LfpStrategy::kSemiNaive);
  EXPECT_GT(naive.report.exec.t_rhs_us + naive.report.exec.t_term_us,
            semi.report.exec.t_rhs_us + semi.report.exec.t_term_us);
}

TEST(LfpStatsTest, NodeStatsLabelAndTuples) {
  auto tb = ListTestbed(5);
  auto outcome = RunQuery(tb.get(), "?- ancestor(X, Y).",
                     LfpStrategy::kSemiNaive);
  ASSERT_EQ(outcome.report.exec.nodes.size(), 1u);
  const NodeStats& ns = outcome.report.exec.nodes[0];
  EXPECT_EQ(ns.label, "ancestor");
  EXPECT_TRUE(ns.is_clique);
  EXPECT_EQ(ns.tuples, 10);  // closure of a 5-node chain
  EXPECT_GT(ns.t_us, 0);
}

TEST(LfpStatsTest, MagicProgramReportsMagicAndModifiedNodes) {
  auto tb = ListTestbed(8);
  auto outcome = RunQuery(tb.get(), "?- ancestor('l0_0', W).",
                     LfpStrategy::kSemiNaive, /*magic=*/true);
  ASSERT_EQ(outcome.report.exec.nodes.size(), 2u);
  EXPECT_EQ(outcome.report.exec.nodes[0].label, "m_ancestor__bf");
  EXPECT_EQ(outcome.report.exec.nodes[1].label, "ancestor__bf");
  // Magic set: the whole chain is reachable from the head -> 8 nodes.
  EXPECT_EQ(outcome.report.exec.nodes[0].tuples, 8);
  EXPECT_EQ(outcome.result.rows.size(), 7u);
}

TEST(LfpStatsTest, AnswerTuplesTracked) {
  auto tb = ListTestbed(6);
  auto outcome = RunQuery(tb.get(), "?- ancestor('l0_0', W).",
                     LfpStrategy::kSemiNaive);
  EXPECT_EQ(outcome.report.exec.answer_tuples, 5);
}

TEST(LfpStatsTest, MutualRecursionIterationsCoupled) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(
                    "odd(X, Y) :- edge(X, Y).\n"
                    "odd(X, Y) :- edge(X, Z), even(Z, Y).\n"
                    "even(X, Y) :- edge(X, Z), odd(Z, Y).\n"
                    "edge(n0, n1).\nedge(n1, n2).\nedge(n2, n3).\n"
                    "edge(n3, n4).\n")
                  .ok());
  auto outcome = RunQuery(tb.get(), "?- odd(n0, Y).", LfpStrategy::kSemiNaive);
  ASSERT_EQ(outcome.report.exec.nodes.size(), 1u);
  // odd and even evaluate together in one clique.
  EXPECT_EQ(outcome.report.exec.nodes[0].label, "even,odd");
  EXPECT_EQ(outcome.result.rows.size(), 2u);  // n1, n3
}

/// Semi-naive's promise, checked with exact counts: in every iteration of
/// every clique node, the rows the driver touches outside SQL statements
/// (dedup probes and inserts, rows appended, copied, cleared or read by its
/// own scans) stay within a constant factor of that iteration's delta plus
/// the rows its variants derived. Work proportional to the accumulated
/// relation breaks the bound once the relation outgrows the delta.
void ExpectDriverWorkBoundedByDelta(const workload::EdgeSet& edges,
                                    const std::string& goal,
                                    const testbed::QueryOptions& options,
                                    size_t expected_answers) {
  constexpr int64_t kRowsPerDeltaRow = 4;
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(workload::AncestorRules()).ok());
  ASSERT_TRUE(
      tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  ASSERT_TRUE(tb->AddFacts("parent", edges.ToTuples()).ok());
  auto outcome = tb->Query(goal, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->result.rows.size(), expected_answers);
  int cliques = 0;
  for (const NodeStats& ns : outcome->report.exec.nodes) {
    if (!ns.is_clique) continue;
    ++cliques;
    SCOPED_TRACE(ns.label);
    const size_t iterations = static_cast<size_t>(ns.iterations);
    ASSERT_EQ(ns.delta_sizes.size(), iterations);
    ASSERT_EQ(ns.new_sizes.size(), iterations);
    ASSERT_EQ(ns.driver_rows.size(), iterations);
    for (size_t i = 0; i < iterations; ++i) {
      EXPECT_LE(ns.delta_sizes[i], ns.new_sizes[i]) << "iteration " << i + 1;
      EXPECT_LE(ns.driver_rows[i],
                kRowsPerDeltaRow * (ns.delta_sizes[i] + ns.new_sizes[i]))
          << "iteration " << i + 1 << " of " << iterations
          << ": delta=" << ns.delta_sizes[i] << " new=" << ns.new_sizes[i];
    }
  }
  EXPECT_GT(cliques, 0);
}

TEST(LfpStatsTest, DriverWorkIsBoundedByDeltaOnTree) {
  // One full binary tree with 4,094 edges (11 levels below the root).
  ExpectDriverWorkBoundedByDelta(workload::MakeFullBinaryTrees(1, 12),
                                 "?- ancestor(X, Y).",
                                 testbed::QueryOptions::SemiNaive(), 40962u);
}

TEST(LfpStatsTest, DriverWorkIsBoundedByDeltaOnChain) {
  // A 200-node chain: 199 iterations, 19,900 answers.
  ExpectDriverWorkBoundedByDelta(workload::MakeLists(1, 200),
                                 "?- ancestor(X, Y).",
                                 testbed::QueryOptions::SemiNaive(), 19900u);
}

// Under magic no clique has the transitive-closure shape (the modified rules
// carry the magic atom), so native-tc runs both the magic and the modified
// clique on the semi-naive loop and keeps its bound.
TEST(LfpStatsTest, DriverWorkIsBoundedByDeltaUnderMagicTc) {
  ExpectDriverWorkBoundedByDelta(
      workload::MakeFullBinaryTrees(1, 12), "?- ancestor('t0_0', W).",
      testbed::QueryOptions::Magic().WithStrategy(LfpStrategy::kNativeTc),
      4094u);
}

}  // namespace
}  // namespace dkb::lfp
