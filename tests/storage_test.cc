#include <gtest/gtest.h>

#include <memory>

#include "catalog/catalog.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/sharded_table.h"
#include "storage/table.h"

namespace dkb {
namespace {

Schema TwoColSchema() {
  return Schema({{"src", DataType::kVarchar}, {"dst", DataType::kVarchar}});
}

Tuple Row(const char* a, const char* b) { return {Value(a), Value(b)}; }

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.FindColumn("src").value(), 0u);
  EXPECT_EQ(s.FindColumn("SRC").value(), 0u);
  EXPECT_EQ(s.FindColumn("dst").value(), 1u);
  EXPECT_FALSE(s.FindColumn("nope").has_value());
}

TEST(SchemaTest, ToStringListsColumns) {
  EXPECT_EQ(TwoColSchema().ToString(), "src VARCHAR, dst VARCHAR");
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, InsertAndScan) {
  Table t("parent", TwoColSchema());
  ASSERT_TRUE(t.Insert(Row("a", "b")).ok());
  ASSERT_TRUE(t.Insert(Row("b", "c")).ok());
  EXPECT_EQ(t.num_tuples(), 2u);
  int count = 0;
  t.Scan([&](RowId, const Tuple& row) {
    EXPECT_EQ(row.size(), 2u);
    ++count;
  });
  EXPECT_EQ(count, 2);
}

TEST(TableTest, InsertRejectsWrongArity) {
  Table t("parent", TwoColSchema());
  auto r = t.Insert({Value("a")});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, InsertRejectsWrongType) {
  Table t("parent", TwoColSchema());
  auto r = t.Insert({Value("a"), Value(static_cast<int64_t>(1))});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(TableTest, NullAllowedInAnyColumn) {
  Table t("parent", TwoColSchema());
  EXPECT_TRUE(t.Insert({Value::Null(), Value("x")}).ok());
}

TEST(TableTest, DeleteTombstones) {
  Table t("parent", TwoColSchema());
  RowId r0 = *t.Insert(Row("a", "b"));
  RowId r1 = *t.Insert(Row("b", "c"));
  EXPECT_TRUE(t.Delete(r0));
  EXPECT_FALSE(t.Delete(r0));  // second delete is a no-op
  EXPECT_EQ(t.num_tuples(), 1u);
  EXPECT_FALSE(t.IsLive(r0));
  EXPECT_TRUE(t.IsLive(r1));
  int count = 0;
  t.Scan([&](RowId, const Tuple&) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(TableTest, ClearEmptiesTableAndIndexes) {
  Table t("parent", TwoColSchema());
  ASSERT_TRUE(
      t.AddIndex(std::make_unique<HashIndex>("ix", std::vector<size_t>{0}))
          .ok());
  t.Insert(Row("a", "b"));
  t.Insert(Row("a", "c"));
  t.Clear();
  EXPECT_EQ(t.num_tuples(), 0u);
  EXPECT_EQ(t.indexes().size(), 1u);
  EXPECT_EQ(t.indexes()[0]->num_entries(), 0u);
  // Index definition survives: new inserts are indexed.
  t.Insert(Row("x", "y"));
  EXPECT_EQ(t.indexes()[0]->num_entries(), 1u);
}

// Slots are constructed as the table first reaches them and kept across an
// unversioned Clear; refilling reuses them and grows past them.
TEST(TableTest, ClearedTableRefillsPastItsSlots) {
  Table t("parent", TwoColSchema());
  const size_t first = Table::kSegmentRows + 5;  // into a second segment
  for (size_t i = 0; i < first; ++i) {
    ASSERT_TRUE(t.Insert({Value("a"), Value(std::to_string(i))}).ok());
  }
  t.Clear();
  EXPECT_EQ(t.num_slots(), 0u);
  const size_t second = 2 * Table::kSegmentRows + 1;  // into a third
  for (size_t i = 0; i < second; ++i) {
    ASSERT_TRUE(t.Insert({Value("b"), Value(std::to_string(i))}).ok());
  }
  EXPECT_EQ(t.num_tuples(), second);
  size_t count = 0;
  t.Scan([&](RowId rid, const Tuple& row) {
    EXPECT_EQ(row[1], Value(std::to_string(rid)));
    ++count;
  });
  EXPECT_EQ(count, second);
}

// The object itself counts: its inline directory makes an empty table
// several KB, which sys.shards and idle program instances report.
TEST(TableTest, ApproxBytesCountsTheTableItself) {
  Table t("parent", TwoColSchema());
  EXPECT_GE(t.ApproxBytes(), sizeof(Table));
  ASSERT_TRUE(t.Insert(Row("a", "b")).ok());
  EXPECT_GT(t.ApproxBytes(), sizeof(Table));
}

TEST(TableTest, IndexMaintainedOnInsertAndDelete) {
  Table t("parent", TwoColSchema());
  ASSERT_TRUE(
      t.AddIndex(std::make_unique<HashIndex>("ix", std::vector<size_t>{0}))
          .ok());
  RowId r0 = *t.Insert(Row("a", "b"));
  RowId r1 = *t.Insert(Row("a", "c"));
  t.Insert(Row("b", "d"));
  const Index* ix = t.indexes()[0].get();
  std::vector<RowId> hits;
  ix->Probe({Value("a")}, &hits);
  EXPECT_EQ(hits.size(), 2u);
  t.Delete(r0);
  hits.clear();
  ix->Probe({Value("a")}, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], r1);
}

TEST(TableTest, AddIndexBackfillsExistingRows) {
  Table t("parent", TwoColSchema());
  t.Insert(Row("a", "b"));
  t.Insert(Row("c", "d"));
  ASSERT_TRUE(
      t.AddIndex(std::make_unique<HashIndex>("ix", std::vector<size_t>{1}))
          .ok());
  std::vector<RowId> hits;
  t.indexes()[0]->Probe({Value("d")}, &hits);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(TableTest, DuplicateIndexNameRejected) {
  Table t("parent", TwoColSchema());
  ASSERT_TRUE(
      t.AddIndex(std::make_unique<HashIndex>("ix", std::vector<size_t>{0}))
          .ok());
  auto s =
      t.AddIndex(std::make_unique<HashIndex>("ix", std::vector<size_t>{1}));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, FindIndexOnMatchesColumnSet) {
  Table t("r", Schema({{"a", DataType::kInteger},
                       {"b", DataType::kInteger},
                       {"c", DataType::kInteger}}));
  ASSERT_TRUE(
      t.AddIndex(std::make_unique<HashIndex>("ab", std::vector<size_t>{0, 1}))
          .ok());
  EXPECT_NE(t.FindIndexOn({0, 1}), nullptr);
  EXPECT_NE(t.FindIndexOn({1, 0}), nullptr);  // set match
  EXPECT_EQ(t.FindIndexOn({0}), nullptr);
  EXPECT_EQ(t.FindIndexOn({0, 2}), nullptr);
}

// ---------------------------------------------------------------------------
// Indexes
// ---------------------------------------------------------------------------

TEST(IndexTest, HashIndexDuplicates) {
  HashIndex ix("ix", {0});
  ix.Insert({Value("k")}, 1);
  ix.Insert({Value("k")}, 2);
  ix.Insert({Value("j")}, 3);
  std::vector<RowId> hits;
  ix.Probe({Value("k")}, &hits);
  EXPECT_EQ(hits.size(), 2u);
  ix.Erase({Value("k")}, 1);
  hits.clear();
  ix.Probe({Value("k")}, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2u);
}

TEST(IndexTest, OrderedIndexRange) {
  OrderedIndex ix("ix", {0});
  for (int64_t i = 0; i < 10; ++i) ix.Insert({Value(i)}, i);
  std::vector<RowId> hits;
  ix.Range({Value(static_cast<int64_t>(3))},
           {Value(static_cast<int64_t>(6))}, &hits);
  EXPECT_EQ(hits.size(), 4u);  // 3,4,5,6
}

TEST(IndexTest, MakeKeyProjectsColumns) {
  HashIndex ix("ix", {2, 0});
  Tuple row = {Value("a"), Value("b"), Value("c")};
  Tuple key = ix.MakeKey(row);
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0], Value("c"));
  EXPECT_EQ(key[1], Value("a"));
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", TwoColSchema()).ok());
  EXPECT_TRUE(cat.HasTable("t"));
  EXPECT_TRUE(cat.HasTable("T"));  // case-insensitive
  auto t = cat.GetSource("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name(), "t");
  ASSERT_TRUE(cat.DropTable("T").ok());
  EXPECT_FALSE(cat.HasTable("t"));
}

TEST(CatalogTest, DuplicateCreateFails) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", TwoColSchema()).ok());
  auto r = cat.CreateTable("T", TwoColSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, DropMissingFails) {
  Catalog cat;
  EXPECT_EQ(cat.DropTable("nope").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, CreateIndexValidatesColumns) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", TwoColSchema()).ok());
  EXPECT_TRUE(cat.CreateIndex("t", "ix", {"src"}, /*ordered=*/false).ok());
  EXPECT_EQ(cat.CreateIndex("t", "ix2", {"bogus"}, false).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cat.CreateIndex("missing", "ix3", {"src"}, false).code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// SlotWindow
// ---------------------------------------------------------------------------

/// Every row a batch scan of `source` returns, shard-major.
std::vector<Tuple> ScanAll(const ScanSource& source) {
  std::vector<Tuple> rows;
  RowBatch batch;
  for (size_t s = 0; s < source.shard_count(); ++s) {
    RowId cursor = 0;
    while (true) {
      cursor = source.ScanBatch(s, cursor, &batch);
      if (batch.empty()) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        rows.push_back(batch.MaterializeTuple(i));
      }
    }
  }
  return rows;
}

TEST(SlotWindowTest, ScansOnlyItsRangeOfEveryShard) {
  ShardedTable table("t", TwoColSchema(), 3);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        table.Insert(Row(("a" + std::to_string(i)).c_str(), "b")).ok());
  }
  SlotWindow window("#w", &table);
  EXPECT_TRUE(ScanAll(window).empty());
  size_t expected = 0;
  for (size_t s = 0; s < 3; ++s) {
    const RowId n = table.shard(s).num_slots();
    window.Set(s, n / 4, n / 2);
    expected += n / 2 - n / 4;
  }
  const std::vector<Tuple> rows = ScanAll(window);
  EXPECT_EQ(rows.size(), expected);
  EXPECT_EQ(window.num_tuples(), expected);
  // Row i of the window's first shard is slot n/4 + i of the base shard.
  const RowId first = table.shard(0).num_slots() / 4;
  EXPECT_EQ(rows[0], table.shard(0).Get(first));
  // A window never offers an index, so plans over it scan.
  ASSERT_TRUE(table.AddIndexSpec("ix", {0}, false).ok());
  EXPECT_NE(table.FindIndexOn({0}), nullptr);
  EXPECT_EQ(window.FindIndexOn({0}), nullptr);
}

TEST(CatalogTest, TableNames) {
  Catalog cat;
  cat.CreateTable("a", TwoColSchema());
  cat.CreateTable("b", TwoColSchema());
  auto names = cat.TableNames();
  EXPECT_EQ(names.size(), 2u);
}

}  // namespace
}  // namespace dkb
