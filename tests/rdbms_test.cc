#include <gtest/gtest.h>

#include <algorithm>

#include "common/interner.h"
#include "common/metrics.h"
#include "rdbms/database.h"

namespace dkb {
namespace {

class RdbmsTest : public ::testing::Test {
 protected:
  void Exec(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  QueryResult Query(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  void LoadParentChain(int n) {
    Exec("CREATE TABLE parent (par VARCHAR, child VARCHAR)");
    std::string values;
    for (int i = 0; i < n; ++i) {
      if (i) values += ", ";
      values += "('n" + std::to_string(i) + "', 'n" + std::to_string(i + 1) +
                "')";
    }
    Exec("INSERT INTO parent VALUES " + values);
  }

  Database db_;
};

TEST_F(RdbmsTest, CreateInsertSelect) {
  Exec("CREATE TABLE t (x INT, name VARCHAR)");
  Exec("INSERT INTO t VALUES (1, 'one'), (2, 'two')");
  QueryResult r = Query("SELECT * FROM t ORDER BY x");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1], Value("one"));
  EXPECT_EQ(r.schema.column(0).name, "x");
}

TEST_F(RdbmsTest, CreateTableTwiceFails) {
  Exec("CREATE TABLE t (x INT)");
  EXPECT_FALSE(db_.Execute("CREATE TABLE t (x INT)").ok());
  Exec("CREATE TABLE IF NOT EXISTS t (x INT)");  // idempotent form ok
}

TEST_F(RdbmsTest, DropTable) {
  Exec("CREATE TABLE t (x INT)");
  Exec("DROP TABLE t");
  EXPECT_FALSE(db_.Execute("SELECT * FROM t").ok());
  Exec("DROP TABLE IF EXISTS t");  // no error
  EXPECT_FALSE(db_.Execute("DROP TABLE t").ok());
}

TEST_F(RdbmsTest, InsertTypeMismatchFails) {
  Exec("CREATE TABLE t (x INT)");
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES ('str')").ok());
}

TEST_F(RdbmsTest, ProjectionAliasesAndLiterals) {
  Exec("CREATE TABLE t (x INT, y VARCHAR)");
  Exec("INSERT INTO t VALUES (1, 'a')");
  QueryResult r = Query("SELECT y AS label, x, 99 AS k FROM t");
  ASSERT_EQ(r.schema.num_columns(), 3u);
  EXPECT_EQ(r.schema.column(0).name, "label");
  EXPECT_EQ(r.schema.column(2).name, "k");
  EXPECT_EQ(r.rows[0][2], Value(static_cast<int64_t>(99)));
}

TEST_F(RdbmsTest, WhereComparisons) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  EXPECT_EQ(Query("SELECT * FROM t WHERE x < 3").rows.size(), 2u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE x <= 3").rows.size(), 3u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE x > 3").rows.size(), 2u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE x >= 3").rows.size(), 3u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE x <> 3").rows.size(), 4u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE x = 3").rows.size(), 1u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE NOT x = 3").rows.size(), 4u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE x = 1 OR x = 5").rows.size(), 2u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE x IN (2, 4, 9)").rows.size(), 2u);
}

TEST_F(RdbmsTest, NullComparisonsAreFalse) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1), (NULL)");
  EXPECT_EQ(Query("SELECT * FROM t WHERE x = 1").rows.size(), 1u);
  EXPECT_EQ(Query("SELECT * FROM t WHERE x <> 1").rows.size(), 0u);
}

TEST_F(RdbmsTest, TwoWayJoin) {
  Exec("CREATE TABLE parent (par VARCHAR, child VARCHAR)");
  Exec("INSERT INTO parent VALUES ('a','b'), ('b','c'), ('b','d')");
  QueryResult r = Query(
      "SELECT p1.par, p2.child FROM parent p1, parent p2 "
      "WHERE p1.child = p2.par ORDER BY 1, 2");
  ASSERT_EQ(r.rows.size(), 2u);  // a->b->c, a->b->d
  EXPECT_EQ(r.rows[0][0], Value("a"));
  EXPECT_EQ(r.rows[0][1], Value("c"));
  EXPECT_EQ(r.rows[1][1], Value("d"));
}

TEST_F(RdbmsTest, ThreeWayJoin) {
  LoadParentChain(10);
  QueryResult r = Query(
      "SELECT a.par, c.child FROM parent a, parent b, parent c "
      "WHERE a.child = b.par AND b.child = c.par");
  EXPECT_EQ(r.rows.size(), 8u);  // great-grandparent pairs in a chain of 10
}

TEST_F(RdbmsTest, CrossJoinWithoutPredicate) {
  Exec("CREATE TABLE a (x INT)");
  Exec("CREATE TABLE b (y INT)");
  Exec("INSERT INTO a VALUES (1), (2)");
  Exec("INSERT INTO b VALUES (10), (20), (30)");
  EXPECT_EQ(Query("SELECT * FROM a, b").rows.size(), 6u);
}

TEST_F(RdbmsTest, JoinUsesIndexWhenAvailable) {
  LoadParentChain(100);
  Exec("CREATE INDEX par_ix ON parent (par)");
  db_.stats().Reset();
  Query(
      "SELECT p1.par, p2.child FROM parent p1, parent p2 "
      "WHERE p1.child = p2.par");
  // Index nested-loop join: one probe per outer row, no full rescan.
  EXPECT_EQ(db_.stats().index_probes, 100);
  EXPECT_EQ(db_.stats().rows_scanned, 100);  // outer side only
}

TEST_F(RdbmsTest, IndexScanForLiteralEquality) {
  LoadParentChain(50);
  Exec("CREATE INDEX par_ix ON parent (par)");
  db_.stats().Reset();
  QueryResult r = Query("SELECT * FROM parent WHERE par = 'n7'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(db_.stats().rows_scanned, 0);
  EXPECT_EQ(db_.stats().index_probes, 1);
}

TEST_F(RdbmsTest, IndexScanForInList) {
  LoadParentChain(50);
  Exec("CREATE INDEX par_ix ON parent (par)");
  db_.stats().Reset();
  QueryResult r =
      Query("SELECT * FROM parent WHERE par IN ('n1', 'n2', 'n3')");
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(db_.stats().rows_scanned, 0);
  EXPECT_EQ(db_.stats().index_probes, 3);
}

TEST_F(RdbmsTest, OrConditionAcrossJoin) {
  // Shape of the paper's relevant-rule extraction query:
  //   WHERE join-pred AND (x = 'p' OR y = 'q').
  Exec("CREATE TABLE r (h VARCHAR, body VARCHAR)");
  Exec("CREATE TABLE reach (f VARCHAR, t VARCHAR)");
  Exec("INSERT INTO r VALUES ('p','x'), ('q','y'), ('z','w')");
  Exec("INSERT INTO reach VALUES ('p','p'), ('p','z'), ('q','q')");
  QueryResult res = Query(
      "SELECT DISTINCT r.h FROM reach, r WHERE reach.t = r.h "
      "AND (reach.f = 'p' OR reach.f = 'q') ORDER BY 1");
  ASSERT_EQ(res.rows.size(), 3u);
  EXPECT_EQ(res.rows[0][0], Value("p"));
  EXPECT_EQ(res.rows[1][0], Value("q"));
  EXPECT_EQ(res.rows[2][0], Value("z"));
}

TEST_F(RdbmsTest, Distinct) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1), (1), (2), (2), (2)");
  EXPECT_EQ(Query("SELECT DISTINCT x FROM t").rows.size(), 2u);
}

TEST_F(RdbmsTest, CountStar) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1), (2), (3)");
  QueryResult r = Query("SELECT COUNT(*) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value(static_cast<int64_t>(3)));
  EXPECT_EQ(r.schema.column(0).name, "count");
  auto n = db_.QueryCount("SELECT COUNT(*) FROM t WHERE x > 1");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2);
}

TEST_F(RdbmsTest, SetOperations) {
  Exec("CREATE TABLE a (x INT)");
  Exec("CREATE TABLE b (x INT)");
  Exec("INSERT INTO a VALUES (1), (2), (3), (3)");
  Exec("INSERT INTO b VALUES (2), (4)");
  EXPECT_EQ(Query("SELECT x FROM a UNION SELECT x FROM b").rows.size(), 4u);
  EXPECT_EQ(Query("SELECT x FROM a UNION ALL SELECT x FROM b").rows.size(),
            6u);
  QueryResult diff =
      Query("SELECT x FROM a EXCEPT SELECT x FROM b ORDER BY x");
  ASSERT_EQ(diff.rows.size(), 2u);  // {1, 3} with set semantics
  EXPECT_EQ(diff.rows[0][0], Value(static_cast<int64_t>(1)));
  EXPECT_EQ(diff.rows[1][0], Value(static_cast<int64_t>(3)));
  EXPECT_EQ(
      Query("SELECT x FROM a INTERSECT SELECT x FROM b").rows.size(), 1u);
}

TEST_F(RdbmsTest, SetOpArityMismatchFails) {
  Exec("CREATE TABLE a (x INT, y INT)");
  Exec("CREATE TABLE b (x INT)");
  EXPECT_FALSE(db_.Execute("SELECT * FROM a UNION SELECT * FROM b").ok());
}

TEST_F(RdbmsTest, InsertSelectMaterializesFirst) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1), (2)");
  // Self-referencing insert must not loop forever.
  Exec("INSERT INTO t SELECT x FROM t");
  EXPECT_EQ(Query("SELECT * FROM t").rows.size(), 4u);
}

TEST_F(RdbmsTest, InsertSelectArityMismatchFails) {
  Exec("CREATE TABLE t (x INT, y INT)");
  Exec("CREATE TABLE u (x INT)");
  Exec("INSERT INTO u VALUES (1)");
  EXPECT_FALSE(db_.Execute("INSERT INTO t SELECT x FROM u").ok());
}

TEST_F(RdbmsTest, DeleteWithAndWithoutWhere) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1), (2), (3)");
  auto r = db_.Execute("DELETE FROM t WHERE x >= 2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_affected, 2);
  EXPECT_EQ(Query("SELECT * FROM t").rows.size(), 1u);
  r = db_.Execute("DELETE FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_affected, 1);
  EXPECT_EQ(Query("SELECT * FROM t").rows.size(), 0u);
}

TEST_F(RdbmsTest, OrderByDescendingAndOrdinal) {
  Exec("CREATE TABLE t (x INT, y VARCHAR)");
  Exec("INSERT INTO t VALUES (1,'b'), (2,'a'), (3,'c')");
  QueryResult r = Query("SELECT x, y FROM t ORDER BY y DESC");
  EXPECT_EQ(r.rows[0][1], Value("c"));
  QueryResult r2 = Query("SELECT x, y FROM t ORDER BY 2");
  EXPECT_EQ(r2.rows[0][1], Value("a"));
}

TEST_F(RdbmsTest, Limit) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (5), (1), (4), (2), (3)");
  QueryResult r = Query("SELECT x FROM t ORDER BY x LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[1][0], Value(static_cast<int64_t>(2)));
}

TEST_F(RdbmsTest, AmbiguousColumnFails) {
  Exec("CREATE TABLE a (x INT)");
  Exec("CREATE TABLE b (x INT)");
  EXPECT_FALSE(db_.Execute("SELECT x FROM a, b").ok());
}

TEST_F(RdbmsTest, UnknownColumnAndTableFail) {
  Exec("CREATE TABLE a (x INT)");
  EXPECT_FALSE(db_.Execute("SELECT bogus FROM a").ok());
  EXPECT_FALSE(db_.Execute("SELECT * FROM missing").ok());
  EXPECT_FALSE(db_.Execute("SELECT b.x FROM a").ok());
}

TEST_F(RdbmsTest, DuplicateAliasFails) {
  Exec("CREATE TABLE a (x INT)");
  EXPECT_FALSE(db_.Execute("SELECT * FROM a t, a t").ok());
}

TEST_F(RdbmsTest, ExecuteAllScript) {
  ASSERT_TRUE(db_.ExecuteAll("CREATE TABLE t (x INT);"
                             "INSERT INTO t VALUES (1);"
                             "INSERT INTO t VALUES (2);")
                  .ok());
  EXPECT_EQ(Query("SELECT * FROM t").rows.size(), 2u);
}

TEST_F(RdbmsTest, QueryScalarAndRows) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (7)");
  auto v = db_.QueryScalar("SELECT x FROM t");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_int(), 7);
  auto rows = db_.QueryRows("SELECT x FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_FALSE(db_.QueryScalar("SELECT x FROM t WHERE x = 0").ok());
}

TEST_F(RdbmsTest, TempTableLifecycle) {
  Exec("CREATE TABLE #delta (x INT)");
  Exec("INSERT INTO #delta VALUES (1)");
  EXPECT_EQ(Query("SELECT * FROM #delta").rows.size(), 1u);
  Exec("DROP TABLE #delta");
  EXPECT_FALSE(db_.Execute("SELECT * FROM #delta").ok());
}

TEST_F(RdbmsTest, StatementCacheReusesParsedText) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1)");
  db_.stats().Reset();
  Query("SELECT * FROM t");
  Query("SELECT * FROM t");
  Query("SELECT * FROM t");
  EXPECT_EQ(db_.stats().statement_cache_hits, 2);
  // A cached statement still sees fresh data.
  Exec("INSERT INTO t VALUES (2)");
  EXPECT_EQ(Query("SELECT * FROM t").rows.size(), 2u);
  // And survives DDL churn (binding is per-execution): recreate the table
  // with a different schema and the cached text re-binds cleanly.
  Exec("DROP TABLE t");
  Exec("CREATE TABLE t (x INT, y INT)");
  Exec("INSERT INTO t VALUES (7, 8)");
  QueryResult r = Query("SELECT * FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.schema.num_columns(), 2u);
}

TEST_F(RdbmsTest, StatementCacheCanBeDisabled) {
  db_.set_statement_cache_enabled(false);
  Exec("CREATE TABLE t (x INT)");
  db_.stats().Reset();
  Query("SELECT * FROM t");
  Query("SELECT * FROM t");
  EXPECT_EQ(db_.stats().statement_cache_hits, 0);
}

TEST_F(RdbmsTest, ResultToStringRendersTable) {
  Exec("CREATE TABLE t (x INT, y VARCHAR)");
  Exec("INSERT INTO t VALUES (1, 'abc')");
  std::string s = Query("SELECT * FROM t").ToString();
  EXPECT_NE(s.find("x"), std::string::npos);
  EXPECT_NE(s.find("abc"), std::string::npos);
  EXPECT_NE(s.find("(1 rows)"), std::string::npos);
}

TEST_F(RdbmsTest, ExplainShowsAccessPaths) {
  LoadParentChain(20);
  Exec("CREATE INDEX par_ix ON parent (par)");
  QueryResult indexed = Query("EXPLAIN SELECT * FROM parent WHERE par = 'n3'");
  std::string plan;
  for (const Tuple& row : indexed.rows) plan += row[0].as_string() + "\n";
  EXPECT_NE(plan.find("IndexScan(parent.par_ix)"), std::string::npos) << plan;

  QueryResult join = Query(
      "EXPLAIN SELECT p1.par FROM parent p1, parent p2 "
      "WHERE p1.child = p2.par");
  plan.clear();
  for (const Tuple& row : join.rows) plan += row[0].as_string() + "\n";
  EXPECT_NE(plan.find("IndexNLJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Project"), std::string::npos) << plan;
}

TEST_F(RdbmsTest, ExplainHashJoinWithoutIndex) {
  LoadParentChain(20);
  QueryResult join = Query(
      "EXPLAIN SELECT p1.par FROM parent p1, parent p2 "
      "WHERE p1.child = p2.par");
  std::string plan;
  for (const Tuple& row : join.rows) plan += row[0].as_string() + "\n";
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(RdbmsTest, RangeScanUsesOrderedIndex) {
  Exec("CREATE TABLE t (x INT, y VARCHAR)");
  std::string values;
  for (int i = 0; i < 100; ++i) {
    if (i) values += ", ";
    values += "(" + std::to_string(i) + ", 'v')";
  }
  Exec("INSERT INTO t VALUES " + values);
  Exec("CREATE ORDERED INDEX x_ix ON t (x)");

  db_.stats().Reset();
  QueryResult r = Query("SELECT * FROM t WHERE x < 10");
  EXPECT_EQ(r.rows.size(), 10u);
  EXPECT_EQ(db_.stats().rows_scanned, 0);  // no sequential scan
  // Inclusive range fetch: rows 0..10 fetched, row 10 filtered.
  EXPECT_EQ(db_.stats().index_rows, 11);

  db_.stats().Reset();
  EXPECT_EQ(Query("SELECT * FROM t WHERE x >= 95").rows.size(), 5u);
  EXPECT_EQ(db_.stats().rows_scanned, 0);

  // Both bounds: the equality-free conjunct pair uses one bound, filters
  // the other.
  EXPECT_EQ(Query("SELECT * FROM t WHERE x > 10 AND x <= 15").rows.size(),
            5u);
  // Literal-on-the-left form is normalized.
  EXPECT_EQ(Query("SELECT * FROM t WHERE 90 <= x").rows.size(), 10u);

  QueryResult plan = Query("EXPLAIN SELECT * FROM t WHERE x < 10");
  std::string text;
  for (const Tuple& row : plan.rows) text += row[0].as_string();
  EXPECT_NE(text.find("IndexRangeScan(t.x_ix)"), std::string::npos) << text;
}

TEST_F(RdbmsTest, RangeScanNotUsedOnHashIndex) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1), (2), (3)");
  Exec("CREATE INDEX x_ix ON t (x)");  // hash index
  QueryResult plan = Query("EXPLAIN SELECT * FROM t WHERE x < 2");
  std::string text;
  for (const Tuple& row : plan.rows) text += row[0].as_string();
  EXPECT_NE(text.find("SeqScan"), std::string::npos) << text;
  EXPECT_EQ(Query("SELECT * FROM t WHERE x < 2").rows.size(), 1u);
}

TEST_F(RdbmsTest, RangeScanOnStrings) {
  Exec("CREATE TABLE t (name VARCHAR)");
  Exec("INSERT INTO t VALUES ('apple'), ('banana'), ('cherry'), ('fig')");
  Exec("CREATE ORDERED INDEX n_ix ON t (name)");
  db_.stats().Reset();
  QueryResult r = Query("SELECT * FROM t WHERE name < 'cherry' ORDER BY 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], Value("apple"));
  EXPECT_EQ(db_.stats().rows_scanned, 0);
}

TEST_F(RdbmsTest, ExplainDoesNotExecute) {
  Exec("CREATE TABLE t (x INT)");
  Exec("INSERT INTO t VALUES (1)");
  db_.stats().Reset();
  Query("EXPLAIN SELECT * FROM t");
  EXPECT_EQ(db_.stats().rows_scanned, 0);
}

// Semi-naive building block: (SELECT ... join) EXCEPT (SELECT * FROM acc).
TEST_F(RdbmsTest, DifferentialQueryShape) {
  Exec("CREATE TABLE parent (par VARCHAR, child VARCHAR)");
  Exec("INSERT INTO parent VALUES ('a','b'), ('b','c')");
  Exec("CREATE TABLE anc (src VARCHAR, dst VARCHAR)");
  Exec("INSERT INTO anc VALUES ('a','b'), ('b','c')");
  Exec("CREATE TABLE #delta (src VARCHAR, dst VARCHAR)");
  Exec("INSERT INTO #delta VALUES ('a','b'), ('b','c')");
  QueryResult r = Query(
      "(SELECT d.src, p.child FROM #delta d, parent p WHERE d.dst = p.par) "
      "EXCEPT (SELECT * FROM anc)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value("a"));
  EXPECT_EQ(r.rows[0][1], Value("c"));
}

// A planned INSERT ... SELECT re-reads its relations on every run and
// reads the names bound as sources instead of the catalog's tables.
TEST_F(RdbmsTest, PlannedStatementRerunsAgainstCurrentContents) {
  Exec("CREATE TABLE edge (src INT, dst INT)");
  Exec("INSERT INTO edge VALUES (1, 2), (2, 3)");
  Exec("CREATE TABLE reach (src INT, dst INT)");
  Exec("INSERT INTO reach VALUES (1, 2), (2, 3)");
  Exec("CREATE TABLE #out (src INT, dst INT)");
  auto source = db_.catalog().GetSource("reach");
  ASSERT_TRUE(source.ok());
  SlotWindow recent("#recent", *source);
  recent.Set(0, 1, 2);  // only (2, 3)
  exec::NamedSources sources{{"#recent", &recent}};
  auto planned = db_.Plan(
      "INSERT INTO #out (SELECT DISTINCT e.src, r.dst FROM edge e, #recent r "
      "WHERE e.dst = r.src) EXCEPT (SELECT * FROM #out)",
      &sources);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto first = planned->Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 1);  // (1, 3)
  Exec("INSERT INTO reach VALUES (3, 4)");
  recent.Set(0, 2, 3);  // only (3, 4)
  const int64_t statements = db_.stats().statements.load();
  auto second = planned->Run();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, 1);  // (2, 4)
  EXPECT_EQ(db_.stats().statements.load(), statements + 1);
  EXPECT_EQ(Query("SELECT * FROM #out ORDER BY 1").rows.size(), 2u);
}

// A planned SELECT hands its rows back in batches, re-read on every run,
// and leaves every relation as it was.
TEST_F(RdbmsTest, PlannedSelectReturnsItsBatches) {
  Exec("CREATE TABLE edge (src INT, dst INT)");
  Exec("INSERT INTO edge VALUES (1, 2), (2, 3), (1, 2)");
  auto planned = db_.Plan("SELECT DISTINCT src, dst FROM edge");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto rows_of = [&planned]() {
    std::vector<Tuple> rows;
    for (const RowBatch& batch : planned->batches()) {
      for (size_t i = 0; i < batch.size(); ++i) {
        rows.push_back(batch.MaterializeTuple(i));
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  auto first = planned->Run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 2);
  const std::vector<Tuple> want = {{Value(int64_t{1}), Value(int64_t{2})},
                                   {Value(int64_t{2}), Value(int64_t{3})}};
  EXPECT_EQ(rows_of(), want);
  Exec("INSERT INTO edge VALUES (3, 4)");
  const int64_t statements = db_.stats().statements.load();
  auto second = planned->Run();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, 3);
  EXPECT_EQ(rows_of().size(), 3u);
  EXPECT_EQ(db_.stats().statements.load(), statements + 1);
  EXPECT_EQ(Query("SELECT * FROM edge").rows.size(), 4u);
}

// A read-only statement's literals bind as dictionary ids only when some
// stored row carries the string: the others stay inline and leave the
// process-wide dictionary (dkb.common.interner_size) as it was.
TEST_F(RdbmsTest, ReadOnlyLiteralsDoNotGrowTheInterner) {
  Exec("CREATE TABLE one (c0 VARCHAR)");
  Exec("INSERT INTO one VALUES ('stored-row-value')");
  const size_t before = GlobalStringDict().size();
  const metrics::Gauge& gauge =
      metrics::GlobalMetrics().gauge("dkb.common.interner_size");
  const int64_t gauge_before = gauge.value();
  EXPECT_TRUE(
      Query("SELECT c0 FROM one WHERE c0 = 'never-stored-1'").rows.empty());
  EXPECT_TRUE(Query("SELECT c0 FROM one WHERE c0 IN ('never-stored-2', "
                    "'never-stored-3')")
                  .rows.empty());
  EXPECT_EQ(GlobalStringDict().size(), before);
  EXPECT_EQ(gauge.value(), gauge_before);
  // A stored string still matches, inline or interned.
  EXPECT_EQ(Query("SELECT c0 FROM one WHERE c0 = 'stored-row-value'")
                .rows.size(),
            1u);
  EXPECT_EQ(Query("SELECT c0 FROM one WHERE c0 IN ('never-stored-2', "
                  "'stored-row-value')")
                .rows.size(),
            1u);
  EXPECT_EQ(GlobalStringDict().size(), before);
}

TEST_F(RdbmsTest, PlanRejectsWhatItCannotPlanAhead) {
  Exec("CREATE TABLE t (c0 INT)");
  EXPECT_EQ(db_.Plan("DELETE FROM t").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.Plan("INSERT INTO t SELECT * FROM missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.Plan("INSERT INTO missing VALUES (?)").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(PlannedStatement().Run().ok());
  // A parameter plans, but no run starts before it is bound.
  auto planned = db_.Plan("INSERT INTO t SELECT c0 FROM t WHERE c0 = ?");
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->param_count(), 1u);
  EXPECT_EQ(planned->Run().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(planned->Bind(1, Value(int64_t{1})).code(),
            StatusCode::kInvalidArgument);
}

// One plan serves every binding: each Run reads the parameters' current
// values, in index keys, filters and VALUES cells alike.
TEST_F(RdbmsTest, PlannedStatementRebindsParameters) {
  Exec("CREATE TABLE edge (src VARCHAR, dst VARCHAR)");
  Exec("CREATE INDEX edge_src ON edge (src)");
  Exec("INSERT INTO edge VALUES ('a', 'b'), ('a', 'c'), ('b', 'c')");
  Exec("CREATE TABLE seed (v VARCHAR)");
  auto select = db_.Plan("SELECT dst FROM edge WHERE src = ? AND dst <> ?");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  auto insert = db_.Plan("INSERT INTO seed VALUES (?)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  auto rows_of = [&select]() {
    std::vector<std::string> rows;
    for (const RowBatch& batch : select->batches()) {
      for (size_t i = 0; i < batch.size(); ++i) {
        rows.push_back(batch.At(i, 0).as_string());
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  const struct {
    const char* src;
    const char* skip;
    std::vector<std::string> want;
  } cases[] = {{"a", "z", {"b", "c"}}, {"a", "b", {"c"}}, {"b", "z", {"c"}},
               {"nobody", "z", {}}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.src);
    ASSERT_TRUE(select->Bind(0, Value(c.src)).ok());
    ASSERT_TRUE(select->Bind(1, Value(c.skip)).ok());
    const int64_t probes = db_.stats().index_probes.load();
    auto rows = select->Run();
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows_of(), c.want);
    EXPECT_EQ(db_.stats().index_probes.load(), probes + 1);  // src = ?
    ASSERT_TRUE(insert->Bind(0, Value(c.src)).ok());
    ASSERT_TRUE(insert->Run().ok());
  }
  EXPECT_EQ(Query("SELECT v FROM seed").rows.size(), 4u);
  EXPECT_EQ(Query("SELECT v FROM seed WHERE v = 'nobody'").rows.size(), 1u);
  // The statement cache may drop the parsed texts: the plans own theirs.
  db_.set_statement_cache_enabled(false);
  db_.set_statement_cache_enabled(true);
  ASSERT_TRUE(select->Bind(0, Value("a")).ok());
  ASSERT_TRUE(select->Run().ok());
  EXPECT_EQ(rows_of(), (std::vector<std::string>{"b", "c"}));
  ASSERT_TRUE(insert->Run().ok());
  EXPECT_EQ(Query("SELECT v FROM seed").rows.size(), 5u);
}

}  // namespace
}  // namespace dkb
