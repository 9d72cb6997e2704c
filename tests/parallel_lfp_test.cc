#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

/// Rows sorted into a canonical order: parallel evaluation must be
/// bitwise-identical to serial up to row order.
std::vector<Tuple> SortedRows(QueryResult result) {
  std::sort(result.rows.begin(), result.rows.end());
  return result.rows;
}

/// Two mutually independent recursive cliques feeding a flat combiner:
/// the SCC wavefront scheduler can run anc1 and anc2 concurrently.
constexpr const char* kTwoCliqueProgram =
    "anc1(X, Y) :- par1(X, Y).\n"
    "anc1(X, Y) :- par1(X, Z), anc1(Z, Y).\n"
    "anc2(X, Y) :- par2(X, Y).\n"
    "anc2(X, Y) :- par2(X, Z), anc2(Z, Y).\n"
    "both(X, Y) :- anc1(X, Y).\n"
    "both(X, Y) :- anc2(X, Y).\n"
    "par1(a1, b1). par1(b1, c1). par1(c1, d1).\n"
    "par2(a2, b2). par2(b2, c2). par2(c2, d2). par2(d2, e2).\n";

std::unique_ptr<Testbed> MakeTwoCliqueTestbed() {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  Status s = (*tb)->Consult(kTwoCliqueProgram);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::move(*tb);
}

std::unique_ptr<Testbed> MakeTreeTestbed(int depth) {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  Status s = (*tb)->Consult(workload::AncestorRules());
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = (*tb)->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar});
  EXPECT_TRUE(s.ok()) << s.ToString();
  auto tree = workload::MakeFullBinaryTrees(1, depth);
  s = (*tb)->AddFacts("parent", tree.ToTuples());
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::move(*tb);
}

void ExpectParallelMatchesSerial(Testbed* tb, const std::string& goal,
                                 QueryOptions base) {
  SCOPED_TRACE(lfp::StrategyName(base.strategy));
  auto serial = tb->Query(goal, QueryOptions(base).WithParallelism(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int par : {2, 4, 0}) {
    auto parallel = tb->Query(goal, QueryOptions(base).WithParallelism(par));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(SortedRows(serial->result), SortedRows(parallel->result))
        << "parallelism=" << par << " diverged on " << goal;
    EXPECT_EQ(parallel->report.exec.nodes.size(), serial->report.exec.nodes.size());
    // Node stats merge in program order regardless of completion order.
    for (size_t i = 0; i < parallel->report.exec.nodes.size(); ++i) {
      EXPECT_EQ(parallel->report.exec.nodes[i].label, serial->report.exec.nodes[i].label);
      EXPECT_EQ(parallel->report.exec.nodes[i].tuples, serial->report.exec.nodes[i].tuples);
    }
  }
}

TEST(ParallelLfpTest, IndependentCliquesSemiNaive) {
  auto tb = MakeTwoCliqueTestbed();
  // The transitive-closure operator runs on the same wavefront scheduler:
  // each node appends its closure before its dependents start.
  for (lfp::LfpStrategy strategy :
       {lfp::LfpStrategy::kSemiNaive, lfp::LfpStrategy::kNativeTc}) {
    ExpectParallelMatchesSerial(
        tb.get(), "both(X, Y)",
        QueryOptions::SemiNaive().WithStrategy(strategy));
  }
}

TEST(ParallelLfpTest, IndependentCliquesNaive) {
  auto tb = MakeTwoCliqueTestbed();
  ExpectParallelMatchesSerial(tb.get(), "both(X, Y)", QueryOptions::Naive());
}

TEST(ParallelLfpTest, BoundQueryOnEachClique) {
  auto tb = MakeTwoCliqueTestbed();
  ExpectParallelMatchesSerial(tb.get(), "anc1(a1, W)",
                              QueryOptions::SemiNaive());
  ExpectParallelMatchesSerial(tb.get(), "anc2(a2, W)",
                              QueryOptions::SemiNaive());
}

TEST(ParallelLfpTest, AncestorTreeWorkload) {
  auto tb = MakeTreeTestbed(/*depth=*/6);
  std::string root = workload::TreeNodeName(0, 0);
  ExpectParallelMatchesSerial(tb.get(), "ancestor('" + root + "', W)",
                              QueryOptions::SemiNaive());
  ExpectParallelMatchesSerial(tb.get(), "ancestor(X, Y)",
                              QueryOptions::SemiNaive());
}

TEST(ParallelLfpTest, MagicSetsParallel) {
  auto tb = MakeTreeTestbed(/*depth=*/6);
  std::string root = workload::TreeNodeName(0, 0);
  for (lfp::LfpStrategy strategy :
       {lfp::LfpStrategy::kSemiNaive, lfp::LfpStrategy::kNativeTc}) {
    ExpectParallelMatchesSerial(tb.get(), "ancestor('" + root + "', W)",
                                QueryOptions::Magic().WithStrategy(strategy));
    ExpectParallelMatchesSerial(
        tb.get(), "ancestor('" + root + "', W)",
        QueryOptions::SupplementaryMagic().WithStrategy(strategy));
  }
}

TEST(ParallelLfpTest, SameGenerationParallel) {
  auto tb = Testbed::Create();
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  Status s = (*tb)->Consult(
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"
      "up(a, b). up(c, b). up(d, e). up(f, e).\n"
      "flat(b, e). flat(e, b).\n"
      "down(b, a). down(b, c). down(e, d). down(e, f).\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectParallelMatchesSerial(tb->get(), "sg(a, W)",
                              QueryOptions::SemiNaive());
  ExpectParallelMatchesSerial(tb->get(), "sg(a, W)", QueryOptions::Magic());
}

TEST(ParallelLfpTest, ParallelismKnobDefaultsSerial) {
  QueryOptions o;
  EXPECT_EQ(o.EffectivePolicy().lfp_parallelism, 1);
  o.WithParallelism(4);
  EXPECT_EQ(o.EffectivePolicy().lfp_parallelism, 4);
}

}  // namespace
}  // namespace dkb::testbed
