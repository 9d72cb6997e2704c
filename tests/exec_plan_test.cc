// Operator-level unit tests for the physical executor: each PlanNode is
// constructed directly and driven through Open/NextBatch/Close, independent
// of the SQL frontend and planner.

#include <gtest/gtest.h>

#include <memory>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "exec/plan.h"

namespace dkb::exec {
namespace {

class ExecPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({{"k", DataType::kInteger}, {"v", DataType::kVarchar}});
    auto created = catalog_.CreateTable("t", schema);
    ASSERT_TRUE(created.ok());
    table_ = &(*created)->shard(0);
    for (int64_t i = 0; i < 10; ++i) {
      table_->InsertUnchecked(
          {Value(i), Value(std::string(1, static_cast<char>('a' + i % 3)))});
    }
  }

  /// Drains an operator into a vector, batch at a time.
  std::vector<Tuple> Drain(PlanNode* node) {
    std::vector<Tuple> out;
    Status s = node->Open();
    EXPECT_TRUE(s.ok()) << s.ToString();
    RowBatch batch;
    while (true) {
      auto more = node->NextBatch(&batch);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        out.push_back(batch.MaterializeTuple(i));
      }
    }
    node->Close();
    return out;
  }

  BoundExprPtr KeyLessThan(int64_t bound) {
    return std::make_unique<BoundComparison>(
        sql::CompareOp::kLt, std::make_unique<BoundColumn>(0),
        std::make_unique<BoundLiteral>(Value(bound)));
  }

  Catalog catalog_;
  Table* table_ = nullptr;
  ExecStats stats_;
};

TEST_F(ExecPlanTest, SeqScanAll) {
  SeqScanNode scan(table_, nullptr, &stats_);
  EXPECT_EQ(Drain(&scan).size(), 10u);
  EXPECT_EQ(stats_.rows_scanned, 10);
}

TEST_F(ExecPlanTest, SeqScanWithFilterAndReopen) {
  SeqScanNode scan(table_, KeyLessThan(4), &stats_);
  EXPECT_EQ(Drain(&scan).size(), 4u);
  // Re-open resets the cursor.
  EXPECT_EQ(Drain(&scan).size(), 4u);
}

TEST_F(ExecPlanTest, SeqScanSkipsTombstones) {
  table_->Delete(0);
  table_->Delete(5);
  SeqScanNode scan(table_, nullptr, &stats_);
  EXPECT_EQ(Drain(&scan).size(), 8u);
}

TEST_F(ExecPlanTest, IndexScanMultipleKeys) {
  ASSERT_TRUE(catalog_.CreateIndex("t", "ix", {"v"}, false).ok());
  const Index* ix = table_->indexes()[0].get();
  std::vector<BoundExprPtr> keys;
  keys.push_back(std::make_unique<BoundLiteral>(Value("a")));
  keys.push_back(std::make_unique<BoundLiteral>(Value("b")));
  IndexScanNode scan(table_, ix, std::move(keys), nullptr, &stats_);
  // 'a' appears for k in {0,3,6,9}, 'b' for {1,4,7}.
  EXPECT_EQ(Drain(&scan).size(), 7u);
  EXPECT_EQ(stats_.index_probes, 2);
}

TEST_F(ExecPlanTest, FilterNode) {
  auto scan = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  FilterNode filter(std::move(scan), KeyLessThan(2));
  EXPECT_EQ(Drain(&filter).size(), 2u);
}

TEST_F(ExecPlanTest, ProjectNode) {
  auto scan = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  std::vector<BoundExprPtr> exprs;
  exprs.push_back(std::make_unique<BoundColumn>(1));
  ProjectNode project(std::move(scan), std::move(exprs),
                      Schema({{"v", DataType::kVarchar}}));
  auto rows = Drain(&project);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0].size(), 1u);
  EXPECT_EQ(project.output_schema().column(0).name, "v");
}

TEST_F(ExecPlanTest, NestedLoopJoinCrossProduct) {
  auto a = std::make_unique<SeqScanNode>(table_, KeyLessThan(2), &stats_);
  auto b = std::make_unique<SeqScanNode>(table_, KeyLessThan(3), &stats_);
  NestedLoopJoinNode join(std::move(a), std::move(b), nullptr, &stats_);
  EXPECT_EQ(Drain(&join).size(), 6u);  // 2 x 3
  EXPECT_EQ(join.output_schema().num_columns(), 4u);
}

TEST_F(ExecPlanTest, HashJoinOnKey) {
  auto a = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  auto b = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  // Join on the v column (slot 1 both sides).
  HashJoinNode join(std::move(a), std::move(b), {1}, {1}, nullptr, &stats_);
  // v='a': 4 rows -> 16 pairs; 'b': 3 -> 9; 'c': 3 -> 9. Total 34.
  EXPECT_EQ(Drain(&join).size(), 34u);
}

TEST_F(ExecPlanTest, HashJoinEmptyBuildSide) {
  auto a = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  auto b = std::make_unique<SeqScanNode>(table_, KeyLessThan(-1), &stats_);
  HashJoinNode join(std::move(a), std::move(b), {0}, {0}, nullptr, &stats_);
  EXPECT_TRUE(Drain(&join).empty());
}

TEST_F(ExecPlanTest, IndexNLJoin) {
  ASSERT_TRUE(catalog_.CreateIndex("t", "kix", {"k"}, false).ok());
  const Index* ix = table_->FindIndexOn({0});
  ASSERT_NE(ix, nullptr);
  auto outer = std::make_unique<SeqScanNode>(table_, KeyLessThan(5), &stats_);
  IndexNLJoinNode join(std::move(outer), table_, ix, {0}, nullptr, &stats_);
  EXPECT_EQ(Drain(&join).size(), 5u);  // each outer row matches itself
  EXPECT_EQ(stats_.index_probes, 5);
}

TEST_F(ExecPlanTest, DistinctNode) {
  auto scan = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  std::vector<BoundExprPtr> exprs;
  exprs.push_back(std::make_unique<BoundColumn>(1));
  auto project = std::make_unique<ProjectNode>(
      std::move(scan), std::move(exprs), Schema({{"v", DataType::kVarchar}}));
  DistinctNode distinct(std::move(project));
  EXPECT_EQ(Drain(&distinct).size(), 3u);  // a, b, c
}

TEST_F(ExecPlanTest, SortAscendingDescending) {
  auto scan = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  SortNode sort(std::move(scan), {{1, true}, {0, false}});
  auto rows = Drain(&sort);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0][1], Value("a"));
  EXPECT_EQ(rows[0][0], Value(static_cast<int64_t>(9)));  // desc within 'a'
  EXPECT_EQ(rows.back()[1], Value("c"));
}

TEST_F(ExecPlanTest, LimitNode) {
  auto scan = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  LimitNode limit(std::move(scan), 3);
  EXPECT_EQ(Drain(&limit).size(), 3u);
  EXPECT_EQ(Drain(&limit).size(), 3u);  // reopen resets the count
}

TEST_F(ExecPlanTest, SetOpSemantics) {
  auto make_scan = [&](int64_t bound) {
    return std::make_unique<SeqScanNode>(table_, KeyLessThan(bound), &stats_);
  };
  {
    SetOpNode u(make_scan(4), make_scan(6), SetOpKind::kUnion);
    EXPECT_EQ(Drain(&u).size(), 6u);
  }
  {
    SetOpNode ua(make_scan(4), make_scan(6), SetOpKind::kUnionAll);
    EXPECT_EQ(Drain(&ua).size(), 10u);
  }
  {
    SetOpNode ex(make_scan(6), make_scan(4), SetOpKind::kExcept);
    EXPECT_EQ(Drain(&ex).size(), 2u);  // rows 4, 5
  }
  {
    SetOpNode in(make_scan(6), make_scan(4), SetOpKind::kIntersect);
    EXPECT_EQ(Drain(&in).size(), 4u);
  }
}

TEST_F(ExecPlanTest, RenderPlanTree) {
  auto scan = std::make_unique<SeqScanNode>(table_, nullptr, &stats_);
  auto filter = std::make_unique<FilterNode>(std::move(scan), KeyLessThan(2));
  LimitNode limit(std::move(filter), 1);
  std::string plan = RenderPlan(limit);
  EXPECT_EQ(plan, "Limit\n  Filter\n    SeqScan(t)\n");
}

TEST_F(ExecPlanTest, ExprEvaluationSemantics) {
  Tuple row = {Value(static_cast<int64_t>(5)), Value("x"), Value::Null()};
  BoundColumn col0(0);
  EXPECT_EQ(col0.Evaluate(row), Value(static_cast<int64_t>(5)));
  // NULL comparisons are false either way.
  BoundComparison null_eq(sql::CompareOp::kEq,
                          std::make_unique<BoundColumn>(2),
                          std::make_unique<BoundColumn>(2));
  EXPECT_FALSE(null_eq.EvaluateBool(row));
  BoundNot not_null_eq(std::make_unique<BoundComparison>(
      sql::CompareOp::kEq, std::make_unique<BoundColumn>(2),
      std::make_unique<BoundColumn>(2)));
  EXPECT_TRUE(not_null_eq.EvaluateBool(row));
  // Cross-type comparison: int vs string is simply unequal.
  BoundComparison cross(sql::CompareOp::kEq,
                        std::make_unique<BoundColumn>(0),
                        std::make_unique<BoundColumn>(1));
  EXPECT_FALSE(cross.EvaluateBool(row));
  // IN-list with NULL needle is false.
  BoundInList in_null(std::make_unique<BoundColumn>(2),
                      {Value(static_cast<int64_t>(5))});
  EXPECT_FALSE(in_null.EvaluateBool(row));
}

}  // namespace
}  // namespace dkb::exec
