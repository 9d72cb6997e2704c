// The semi-naive termination step's dedup index: membership keyed on value
// ids, with NULLs and un-interned strings kept apart.

#include <gtest/gtest.h>

#include "lfp/dedup_index.h"

namespace dkb::lfp {
namespace {

RowBatch Batch(const std::vector<Tuple>& rows) {
  RowBatch batch;
  batch.Reset(rows.empty() ? 0 : rows[0].size());
  for (const Tuple& row : rows) batch.AppendRow(row);
  return batch;
}

TEST(DedupIndexTest, AcceptsEachDistinctRowOnce) {
  DedupIndex index(2);
  RowBatch batch = Batch({{Value(int64_t{1}), Value::Interned("a")},
                          {Value(int64_t{1}), Value::Interned("b")},
                          {Value(int64_t{1}), Value::Interned("a")},
                          {Value(int64_t{2}), Value::Interned("a")}});
  EXPECT_TRUE(index.Insert(batch, 0));
  EXPECT_TRUE(index.Insert(batch, 1));
  EXPECT_FALSE(index.Insert(batch, 2));
  EXPECT_TRUE(index.Insert(batch, 3));
  EXPECT_EQ(index.size(), 3u);
}

TEST(DedupIndexTest, GrowsWithoutLosingRows) {
  DedupIndex index(2);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 20000; ++i) {
    rows.push_back({Value(i % 1000), Value(i / 1000)});
  }
  RowBatch batch = Batch(rows);
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_TRUE(index.Insert(batch, i));
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_FALSE(index.Insert(batch, i));
  EXPECT_EQ(index.size(), 20000u);
}

TEST(DedupIndexTest, NullsAndUninternedStringsDedupByValue) {
  DedupIndex index(2);
  RowBatch batch = Batch({{Value(int64_t{0}), Value()},
                          {Value(int64_t{0}), Value()},
                          {Value(int64_t{0}), Value(int64_t{0})},
                          {Value(int64_t{0}), Value("plain")},
                          {Value(int64_t{0}), Value("plain")}});
  EXPECT_TRUE(index.Insert(batch, 0));
  EXPECT_FALSE(index.Insert(batch, 1));
  EXPECT_TRUE(index.Insert(batch, 2));  // 0 is not NULL
  EXPECT_TRUE(index.Insert(batch, 3));
  EXPECT_FALSE(index.Insert(batch, 4));
  EXPECT_EQ(index.size(), 3u);
}

TEST(DedupIndexTest, HonoursTheBatchSelection) {
  DedupIndex index(1);
  RowBatch batch = Batch({{Value(int64_t{7})}, {Value(int64_t{8})}});
  batch.ComposeSelection({1});
  EXPECT_TRUE(index.Insert(batch, 0));  // row 8
  RowBatch again = Batch({{Value(int64_t{8})}});
  EXPECT_FALSE(index.Insert(again, 0));
}

}  // namespace
}  // namespace dkb::lfp
