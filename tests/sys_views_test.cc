// sys.* system views: schema goldens, answering through the ordinary SQL
// path (projections, WHERE, joins), flight-recorder ring semantics, the
// slow-query log, and read-only enforcement.

#include "testbed/sys_views.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "testbed/session.h"
#include "testbed/testbed.h"

namespace dkb::testbed {
namespace {

constexpr char kAncestorProgram[] = R"(
par(a, b).
par(b, c).
par(c, d).
par(d, e).
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
)";

std::unique_ptr<Testbed> MakeTestbed(
    TestbedOptions options = TestbedOptions{}) {
  auto tb = Testbed::Create(options);
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  Status consulted = (*tb)->Consult(kAncestorProgram);
  EXPECT_TRUE(consulted.ok()) << consulted.ToString();
  return std::move(*tb);
}

Result<QueryResult> Sql(Testbed* tb, const std::string& sql) {
  return tb->db().Execute(sql);
}

TEST(SysViewsTest, SchemasMatchTheGolden) {
  // Pinned per view: name plus ordered column list. A change here is a
  // user-visible break of the observability surface — update deliberately.
  struct Golden {
    const char* view;
    std::vector<const char*> columns;
  };
  const std::vector<Golden> goldens = {
      {"sys.query_log",
       {"query_id", "session_id", "ts_us", "query", "strategy", "magic",
        "from_cache", "executed", "rows_out", "iterations", "total_us",
        "t_setup_us", "t_extract_us", "t_read_us", "t_analyze_us",
        "t_opt_us", "t_eol_us", "t_sem_us", "t_gen_us", "t_comp_us",
        "t_temp_us", "t_rhs_us", "t_term_us", "t_final_us", "batches",
        "statements_planned", "shards", "bytes_sent", "bytes_received",
        "trace"}},
      {"sys.lfp_iterations",
       {"query_id", "node", "is_clique", "iter", "delta_rows", "new_rows",
        "driver_rows", "rhs_us", "term_us"}},
      {"sys.metrics", {"name", "kind", "value", "sum", "max", "p50", "p99"}},
      {"sys.sessions",
       {"session_id", "epoch", "testbed_epoch", "snapshot_age", "queries"}},
      {"sys.shards",
       {"name", "kind", "shard", "rows", "bytes", "morsels", "scan_batches"}},
      {"sys.connections",
       {"connection_id", "peer", "session_id", "frames_received", "bytes_in",
        "bytes_out", "queries", "requests", "errors", "age_us"}},
      {"sys.server", {"name", "kind", "value", "sum", "max", "p50", "p99"}},
      {"sys.settings", {"name", "value"}},
      {"sys.wal",
       {"enabled", "path", "last_lsn", "appends", "fsyncs", "fsync",
        "group_commit"}},
      {"sys.checkpoints", {"path", "last_lsn", "epoch"}},
  };

  auto tb = MakeTestbed();
  const auto& defs = SystemViewDefs();
  ASSERT_EQ(defs.size(), goldens.size());
  for (size_t v = 0; v < goldens.size(); ++v) {
    EXPECT_EQ(defs[v].name, goldens[v].view);
    // The declared schema and the schema a SELECT * actually answers with
    // must both match the golden.
    auto result = Sql(tb.get(), std::string("SELECT * FROM ") +
                                    goldens[v].view);
    ASSERT_TRUE(result.ok()) << goldens[v].view << ": "
                             << result.status().ToString();
    ASSERT_EQ(result->schema.num_columns(), goldens[v].columns.size())
        << goldens[v].view;
    for (size_t c = 0; c < goldens[v].columns.size(); ++c) {
      EXPECT_EQ(defs[v].schema.column(c).name, goldens[v].columns[c])
          << goldens[v].view;
      EXPECT_EQ(result->schema.column(c).name, goldens[v].columns[c])
          << goldens[v].view;
      EXPECT_EQ(result->schema.column(c).type, defs[v].schema.column(c).type)
          << goldens[v].view << "." << goldens[v].columns[c];
    }
  }
}

TEST(SysViewsTest, ServerViewIsEmptyWithoutANetworkServer) {
  // sys.server surfaces the wire server's request-lifecycle stats; a bare
  // in-process testbed has none, and the view answers (not errors) empty.
  auto tb = MakeTestbed();
  auto rows = Sql(tb.get(), "SELECT * FROM sys.server");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(rows->rows.empty());
}

TEST(SysViewsTest, QueryLogRecordsCompletedQueries) {
  auto tb = MakeTestbed();
  ASSERT_TRUE(tb->Query("anc(a, X)").ok());
  ASSERT_TRUE(tb->Query("anc(b, X)").ok());

  auto rows = Sql(tb.get(),
                  "SELECT query_id, query, executed, rows_out, session_id "
                  "FROM sys.query_log");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0].as_int(), 1);
  EXPECT_EQ(rows->rows[0][1].as_string(), "anc(a, X)");
  EXPECT_EQ(rows->rows[0][2].as_int(), 1);  // executed
  EXPECT_EQ(rows->rows[0][3].as_int(), 4);  // anc(a, ·) reaches b, c, d, e
  EXPECT_EQ(rows->rows[0][4].as_int(), 0);  // testbed itself = session 0
  EXPECT_EQ(rows->rows[1][0].as_int(), 2);
  EXPECT_EQ(rows->rows[1][1].as_string(), "anc(b, X)");
}

TEST(SysViewsTest, QueryLogAnswersWherePredicates) {
  auto tb = MakeTestbed();
  ASSERT_TRUE(tb->Query("anc(a, X)").ok());
  ASSERT_TRUE(tb->Query("anc(b, X)", QueryOptions::Magic()).ok());

  auto rows = Sql(tb.get(),
                  "SELECT query FROM sys.query_log WHERE magic = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].as_string(), "anc(b, X)");
}

TEST(SysViewsTest, LfpIterationsJoinToQueryLog) {
  auto tb = MakeTestbed();
  auto outcome = tb->Query("anc(a, X)");
  ASSERT_TRUE(outcome.ok());
  ASSERT_GT(outcome->report.exec.iterations, 1);

  // The satellite join: per-iteration deltas keyed back to the query text
  // through sys.query_log, all through the ordinary SQL path.
  auto rows = Sql(tb.get(),
                  "SELECT q.query, l.iter, l.delta_rows "
                  "FROM sys.lfp_iterations l, sys.query_log q "
                  "WHERE l.query_id = q.query_id AND l.is_clique = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(static_cast<int64_t>(rows->rows.size()),
            outcome->report.exec.iterations);
  // The view is a faithful flattening of the report: one row per recorded
  // iteration of the clique node, deltas matching NodeStats::delta_sizes.
  const lfp::NodeStats* clique = nullptr;
  for (const auto& node : outcome->report.exec.nodes) {
    if (node.is_clique) clique = &node;
  }
  ASSERT_NE(clique, nullptr);
  ASSERT_EQ(rows->rows.size(), clique->delta_sizes.size());
  for (size_t i = 0; i < rows->rows.size(); ++i) {
    EXPECT_EQ(rows->rows[i][0].as_string(), "anc(a, X)");
    EXPECT_EQ(rows->rows[i][1].as_int(), static_cast<int64_t>(i) + 1);
    EXPECT_EQ(rows->rows[i][2].as_int(), clique->delta_sizes[i]);
  }
  // The fixpoint signature of the chain: strictly shrinking deltas ending
  // in the empty round that proves termination.
  EXPECT_EQ(rows->rows.back()[2].as_int(), 0);
}

TEST(SysViewsTest, LfpIterationsCountNewAndDriverRows) {
  auto tb = MakeTestbed();
  auto seminaive = tb->Query("anc(a, X)");
  ASSERT_TRUE(seminaive.ok());
  const lfp::NodeStats* clique = nullptr;
  for (const auto& node : seminaive->report.exec.nodes) {
    if (node.is_clique) clique = &node;
  }
  ASSERT_NE(clique, nullptr);
  ASSERT_TRUE(tb->Query("anc(a, X)", QueryOptions::Naive()).ok());

  auto rows = Sql(tb.get(),
                  "SELECT query_id, new_rows, driver_rows "
                  "FROM sys.lfp_iterations WHERE is_clique = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  size_t counted = 0;
  for (const Tuple& row : rows->rows) {
    if (row[0].as_int() == seminaive->report.query_id) {
      // Semi-naive's exact per-iteration counts, as NodeStats has them.
      ASSERT_LT(counted, clique->new_sizes.size());
      EXPECT_EQ(row[1].as_int(), clique->new_sizes[counted]);
      EXPECT_EQ(row[2].as_int(), clique->driver_rows[counted]);
      ++counted;
    } else {
      // Naive does not count them.
      EXPECT_TRUE(row[1].is_null());
      EXPECT_TRUE(row[2].is_null());
    }
  }
  EXPECT_EQ(counted, clique->new_sizes.size());
  EXPECT_GT(rows->rows.size(), counted);
}

TEST(SysViewsTest, LfpIterationsSplitRhsAndTermTime) {
  auto tb = MakeTestbed();
  auto seminaive = tb->Query("anc(a, X)");
  ASSERT_TRUE(seminaive.ok());
  const lfp::NodeStats* clique = nullptr;
  for (const auto& node : seminaive->report.exec.nodes) {
    if (node.is_clique) clique = &node;
  }
  ASSERT_NE(clique, nullptr);
  ASSERT_EQ(clique->rhs_us.size(), clique->delta_sizes.size());
  ASSERT_EQ(clique->term_us.size(), clique->delta_sizes.size());
  // The per-iteration split is carved out of the run's buckets.
  int64_t rhs = 0;
  int64_t term = 0;
  for (size_t i = 0; i < clique->rhs_us.size(); ++i) {
    EXPECT_GE(clique->rhs_us[i], 0);
    EXPECT_GE(clique->term_us[i], 0);
    rhs += clique->rhs_us[i];
    term += clique->term_us[i];
  }
  // Each entry rounds on its own, so the sums may exceed the rounded
  // buckets by up to half a microsecond per iteration.
  const int64_t slack = static_cast<int64_t>(clique->rhs_us.size());
  EXPECT_LE(rhs, seminaive->report.exec.t_rhs_us + slack);
  EXPECT_LE(term, seminaive->report.exec.t_term_us + slack);
  ASSERT_TRUE(tb->Query("anc(a, X)", QueryOptions::Naive()).ok());

  auto rows = Sql(tb.get(),
                  "SELECT query_id, rhs_us, term_us "
                  "FROM sys.lfp_iterations WHERE is_clique = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  size_t counted = 0;
  for (const Tuple& row : rows->rows) {
    if (row[0].as_int() == seminaive->report.query_id) {
      ASSERT_LT(counted, clique->rhs_us.size());
      EXPECT_EQ(row[1].as_int(), clique->rhs_us[counted]);
      EXPECT_EQ(row[2].as_int(), clique->term_us[counted]);
      ++counted;
    } else {
      // Naive does not split its iterations.
      EXPECT_TRUE(row[1].is_null());
      EXPECT_TRUE(row[2].is_null());
    }
  }
  EXPECT_EQ(counted, clique->rhs_us.size());
}

TEST(SysViewsTest, DottedNamesResolveByBaseNameQualifier) {
  auto tb = MakeTestbed();
  ASSERT_TRUE(tb->Query("anc(a, X)").ok());
  auto rows = Sql(tb.get(),
                  "SELECT query_log.query_id FROM sys.query_log "
                  "WHERE query_log.executed = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
}

TEST(SysViewsTest, RingBufferEvictsOldestQueries) {
  auto tb = MakeTestbed(TestbedOptions{}.WithFlightRecorderCapacity(4));
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(tb->Query("anc(a, X)").ok());
  }
  auto rows = Sql(tb.get(), "SELECT query_id FROM sys.query_log");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 4u);  // capacity K after K+3 queries
  EXPECT_EQ(rows->rows[0][0].as_int(), 4);  // 1..3 evicted, oldest first
  EXPECT_EQ(rows->rows[3][0].as_int(), 7);
}

TEST(SysViewsTest, SlowQueryLogEmitsOneRecordPerSlowQuery) {
  auto tb = MakeTestbed();
  std::vector<std::string> records;
  SlowQueryLogOptions slow;
  slow.threshold_us = 0;  // every real query takes > 0 us
  slow.sink = [&records](const std::string& r) { records.push_back(r); };
  tb->recorder().SetSlowQueryLog(slow);

  ASSERT_TRUE(tb->Query("anc(a, X)").ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("[dkb slow query]"), std::string::npos);
  EXPECT_NE(records[0].find("query=\"anc(a, X)\""), std::string::npos);

  // Raising the threshold silences the log again.
  slow.threshold_us = int64_t{1} << 40;
  tb->recorder().SetSlowQueryLog(slow);
  ASSERT_TRUE(tb->Query("anc(a, X)").ok());
  EXPECT_EQ(records.size(), 1u);
}

TEST(SysViewsTest, ViewsRejectAllWrites) {
  auto tb = MakeTestbed();
  const std::vector<std::string> writes = {
      "INSERT INTO sys.query_log VALUES (1)",
      "DELETE FROM sys.query_log",
      "DROP TABLE sys.query_log",
      "CREATE TABLE sys.mine (x INTEGER)",
      "CREATE INDEX idx ON sys.query_log (query_id)",
  };
  for (const std::string& sql : writes) {
    auto result = Sql(tb.get(), sql);
    EXPECT_FALSE(result.ok()) << sql;
  }
  // The views still answer afterwards.
  EXPECT_TRUE(Sql(tb.get(), "SELECT * FROM sys.settings").ok());
}

TEST(SysViewsTest, MetricsViewSeesQueryCounters) {
  metrics::ScopedMetricsReset scoped;
  auto tb = MakeTestbed();
  ASSERT_TRUE(tb->Query("anc(a, X)").ok());
  ASSERT_TRUE(tb->Query("anc(a, X)").ok());

  auto rows = Sql(tb.get(),
                  "SELECT kind, value FROM sys.metrics "
                  "WHERE name = 'dkb.query.count'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].as_string(), "counter");
  EXPECT_EQ(rows->rows[0][1].as_int(), 2);

  auto hist = Sql(tb.get(),
                  "SELECT value, sum, p50, p99 FROM sys.metrics "
                  "WHERE name = 'dkb.query.total_us'");
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  ASSERT_EQ(hist->rows.size(), 1u);
  EXPECT_EQ(hist->rows[0][0].as_int(), 2);       // two observations
  EXPECT_GT(hist->rows[0][1].as_int(), 0);       // nonzero total time
  EXPECT_LE(hist->rows[0][2].as_int(), hist->rows[0][3].as_int());
}

TEST(SysViewsTest, SessionsViewTracksOpenSessions) {
  auto tb = MakeTestbed();
  auto empty = Sql(tb.get(), "SELECT * FROM sys.sessions");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->rows.empty());

  auto s1 = tb->OpenSession();
  auto s2 = tb->OpenSession();
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_TRUE((*s1)->Query("anc(a, X)").ok());

  auto rows = Sql(tb.get(),
                  "SELECT session_id, snapshot_age, queries "
                  "FROM sys.sessions");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0].as_int(), (*s1)->id());
  EXPECT_EQ(rows->rows[0][1].as_int(), 0);  // fresh snapshot
  EXPECT_EQ(rows->rows[0][2].as_int(), 1);
  EXPECT_EQ(rows->rows[1][0].as_int(), (*s2)->id());
  EXPECT_EQ(rows->rows[1][2].as_int(), 0);

  // A committed write leaves open sessions stale until their next query.
  ASSERT_TRUE(tb->AddFacts("par", {{Value("e"), Value("f")}}).ok());
  auto stale = Sql(tb.get(),
                   "SELECT session_id FROM sys.sessions "
                   "WHERE snapshot_age > 0");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->rows.size(), 2u);

  // Closed sessions drop out of the view.
  s1->reset();
  s2->reset();
  auto after = Sql(tb.get(), "SELECT * FROM sys.sessions");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->rows.empty());
}

TEST(SysViewsTest, ConnectionsViewReflectsInstalledSource) {
  auto tb = MakeTestbed();
  // No server attached: the view exists and is empty.
  auto empty = Sql(tb.get(), "SELECT * FROM sys.connections");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->rows.empty());

  // A server installs its registry as the source (here: a stub).
  tb->SetConnectionsSource([]() {
    Testbed::ConnectionInfo c;
    c.connection_id = 7;
    c.peer = "127.0.0.1:50000";
    c.session_id = 3;
    c.frames_received = 12;
    c.bytes_in = 340;
    c.bytes_out = 1200;
    c.queries = 5;
    return std::vector<Testbed::ConnectionInfo>{c};
  });
  auto rows = Sql(tb.get(),
                  "SELECT connection_id, peer, queries FROM sys.connections "
                  "WHERE bytes_out > 1000");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].as_int(), 7);
  EXPECT_EQ(rows->rows[0][1].as_string(), "127.0.0.1:50000");
  EXPECT_EQ(rows->rows[0][2].as_int(), 5);

  // Server shutdown removes the source; the view empties again.
  tb->SetConnectionsSource(nullptr);
  auto after = Sql(tb.get(), "SELECT * FROM sys.connections");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->rows.empty());
}

TEST(SysViewsTest, SessionQueriesRecordUnderTheirSessionId) {
  auto tb = MakeTestbed();
  auto session = tb->OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Query("anc(a, X)").ok());

  auto rows = Sql(tb.get(),
                  "SELECT session_id, query FROM sys.query_log "
                  "WHERE session_id > 0");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].as_int(), (*session)->id());
  EXPECT_EQ(rows->rows[0][1].as_string(), "anc(a, X)");
}

TEST(SysViewsTest, SettingsViewReflectsConfiguration) {
  auto tb = MakeTestbed(TestbedOptions{}
                            .WithFlightRecorderCapacity(32)
                            .WithSlowQueryThreshold(5000, /*json=*/true));
  auto capacity = Sql(tb.get(),
                      "SELECT value FROM sys.settings "
                      "WHERE name = 'flight_recorder_capacity'");
  ASSERT_TRUE(capacity.ok()) << capacity.status().ToString();
  ASSERT_EQ(capacity->rows.size(), 1u);
  EXPECT_EQ(capacity->rows[0][0].as_string(), "32");

  auto threshold = Sql(tb.get(),
                       "SELECT value FROM sys.settings "
                       "WHERE name = 'slow_query_threshold_us'");
  ASSERT_TRUE(threshold.ok());
  ASSERT_EQ(threshold->rows.size(), 1u);
  EXPECT_EQ(threshold->rows[0][0].as_string(), "5000");

  auto format = Sql(tb.get(),
                    "SELECT value FROM sys.settings "
                    "WHERE name = 'slow_query_log_format'");
  ASSERT_TRUE(format.ok());
  ASSERT_EQ(format->rows.size(), 1u);
  EXPECT_EQ(format->rows[0][0].as_string(), "json");
}

TEST(SysViewsTest, ViewsSurviveSessionSaveAndLoad) {
  auto tb = MakeTestbed();
  ASSERT_TRUE(tb->Query("anc(a, X)").ok());
  std::string path = ::testing::TempDir() + "/sys_views_session.dkbsnap";
  ASSERT_TRUE(tb->SaveSession(path).ok());

  auto loaded = Testbed::LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The restored testbed has a fresh recorder but live views.
  auto log = Sql(loaded->get(), "SELECT * FROM sys.query_log");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_TRUE(log->rows.empty());
  ASSERT_TRUE((*loaded)->Query("anc(a, X)").ok());
  auto after = Sql(loaded->get(), "SELECT query FROM sys.query_log");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->rows.size(), 1u);
}

TEST(SysViewsTest, ExplainWorksOnSystemViews) {
  auto tb = MakeTestbed();
  auto plan = Sql(tb.get(), "EXPLAIN SELECT * FROM sys.query_log");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->rows.empty());
}

TEST(SysViewsTest, ReportCarriesQueryAndSessionIds) {
  auto tb = MakeTestbed();
  auto first = tb->Query("anc(a, X)");
  auto second = tb->Query("anc(b, X)");
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->report.query_id, 1);
  EXPECT_EQ(second->report.query_id, 2);
  EXPECT_EQ(first->report.session_id, 0);
  EXPECT_EQ(first->report.compile.query_id, 1);
  EXPECT_EQ(first->report.exec.query_id, 1);
  std::string json = second->report.ToJson();
  EXPECT_NE(json.find("\"query_id\": 2"), std::string::npos);
}

}  // namespace
}  // namespace dkb::testbed
