// Parameterized sweep over the paper's §5.2 data characterization: the
// ancestor query must produce identical answers under every evaluation
// strategy and optimization for each relation shape (list, full binary
// tree, DAG, cyclic graph).

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb {
namespace {

using lfp::LfpStrategy;

enum class DataShape { kList, kTree, kDag, kCyclic };

const char* ShapeName(DataShape shape) {
  switch (shape) {
    case DataShape::kList:
      return "List";
    case DataShape::kTree:
      return "Tree";
    case DataShape::kDag:
      return "Dag";
    case DataShape::kCyclic:
      return "Cyclic";
  }
  return "";
}

workload::EdgeSet MakeData(DataShape shape) {
  switch (shape) {
    case DataShape::kList:
      return workload::MakeLists(3, 12);
    case DataShape::kTree:
      return workload::MakeFullBinaryTrees(1, 5);
    case DataShape::kDag:
      return workload::MakeDag(6, 4, 2, 11);
    case DataShape::kCyclic:
      return workload::MakeCyclicGraph(6, 4, 2, 3, 2, 11);
  }
  return {};
}

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

class DataShapeSweepTest
    : public ::testing::TestWithParam<std::tuple<DataShape, bool>> {};

TEST_P(DataShapeSweepTest, StrategiesAgree) {
  auto [shape, nonlinear] = GetParam();
  workload::EdgeSet data = MakeData(shape);
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult(nonlinear ? workload::AncestorRulesNonLinear()
                                    : workload::AncestorRules())
                  .ok());
  ASSERT_TRUE(
      tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  ASSERT_TRUE(tb->AddFacts("parent", data.ToTuples()).ok());

  for (const std::string& root :
       {data.roots.front(), data.roots.back()}) {
    std::set<std::string> reference;
    bool have_reference = false;
    for (auto strategy : {LfpStrategy::kSemiNaive, LfpStrategy::kNaive,
                          LfpStrategy::kNativeTc}) {
      for (bool magic : {false, true}) {
        testbed::QueryOptions opts =
            (magic ? testbed::QueryOptions::Magic()
                   : testbed::QueryOptions::SemiNaive())
                .WithStrategy(strategy);
        auto outcome =
            tb->Query(workload::AncestorQuery(root), opts);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        auto answers = AnswerSet(outcome->result);
        if (!have_reference) {
          reference = answers;
          have_reference = true;
        } else {
          EXPECT_EQ(answers, reference)
              << ShapeName(shape) << " root=" << root << " "
              << lfp::StrategyName(strategy) << " magic=" << magic;
        }
      }
    }
    // Sanity: queries from the first root reach something on every shape.
    if (root == data.roots.front()) {
      EXPECT_FALSE(reference.empty()) << ShapeName(shape);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DataShapeSweepTest,
    ::testing::Combine(::testing::Values(DataShape::kList, DataShape::kTree,
                                         DataShape::kDag,
                                         DataShape::kCyclic),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(ShapeName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "NonLinear" : "Linear");
    });

}  // namespace
}  // namespace dkb
