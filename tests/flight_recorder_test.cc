// Flight recorder: ring-buffer retention, query-id assignment, slow-query
// log thresholding and record formats.

#include "testbed/flight_recorder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dkb::testbed {
namespace {

QueryLogEntry Entry(int64_t id, int64_t total_us) {
  QueryLogEntry e;
  e.query_id = id;
  e.query = "anc(a, X)";
  e.strategy = "semi-naive";
  e.executed = true;
  e.total_us = total_us;
  return e;
}

TEST(FlightRecorderTest, QueryIdsAreMonotonicFromOne) {
  FlightRecorder recorder;
  EXPECT_EQ(recorder.NextQueryId(), 1);
  EXPECT_EQ(recorder.NextQueryId(), 2);
  EXPECT_EQ(recorder.NextQueryId(), 3);
}

TEST(FlightRecorderTest, RingEvictsOldestBeyondCapacity) {
  FlightRecorder recorder(/*capacity=*/3);
  for (int64_t id = 1; id <= 5; ++id) recorder.Record(Entry(id, 10));
  std::vector<QueryLogEntry> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].query_id, 3);
  EXPECT_EQ(snapshot[1].query_id, 4);
  EXPECT_EQ(snapshot[2].query_id, 5);
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.capacity(), 3u);
}

TEST(FlightRecorderTest, ShrinkingCapacityDropsOldest) {
  FlightRecorder recorder(/*capacity=*/8);
  for (int64_t id = 1; id <= 6; ++id) recorder.Record(Entry(id, 10));
  recorder.SetCapacity(2);
  std::vector<QueryLogEntry> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].query_id, 5);
  EXPECT_EQ(snapshot[1].query_id, 6);
}

TEST(FlightRecorderTest, ZeroCapacityIsClampedToOne) {
  FlightRecorder recorder(/*capacity=*/0);
  recorder.Record(Entry(1, 10));
  recorder.Record(Entry(2, 10));
  EXPECT_EQ(recorder.capacity(), 1u);
  ASSERT_EQ(recorder.Snapshot().size(), 1u);
  EXPECT_EQ(recorder.Snapshot()[0].query_id, 2);
}

TEST(FlightRecorderTest, SlowLogEmitsExactlyOneRecordPastThreshold) {
  FlightRecorder recorder;
  std::vector<std::string> records;
  SlowQueryLogOptions slow;
  slow.threshold_us = 100;
  slow.sink = [&records](const std::string& r) { records.push_back(r); };
  recorder.SetSlowQueryLog(slow);

  recorder.Record(Entry(1, 100));  // at threshold: not slow
  EXPECT_TRUE(records.empty());
  recorder.Record(Entry(2, 101));  // past threshold: one record
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("id=2"), std::string::npos) << records[0];
  EXPECT_NE(records[0].find("total_us=101"), std::string::npos);
  EXPECT_NE(records[0].find("query=\"anc(a, X)\""), std::string::npos);
  recorder.Record(Entry(3, 50));  // under threshold again
  EXPECT_EQ(records.size(), 1u);
}

TEST(FlightRecorderTest, SlowLogDisabledByDefault) {
  FlightRecorder recorder;
  std::vector<std::string> records;
  // Even a sink doesn't help: the default threshold (-1) disables the log.
  SlowQueryLogOptions slow = recorder.slow_query_log();
  EXPECT_LT(slow.threshold_us, 0);
  slow.sink = [&records](const std::string& r) { records.push_back(r); };
  recorder.SetSlowQueryLog(slow);
  recorder.Record(Entry(1, 1 << 30));
  EXPECT_TRUE(records.empty());
}

TEST(FlightRecorderTest, SlowRecordJsonFormat) {
  std::string record =
      FlightRecorder::FormatSlowRecord(Entry(7, 12345), /*json=*/true);
  EXPECT_EQ(record.front(), '{');
  EXPECT_EQ(record.back(), '}');
  EXPECT_NE(record.find("\"slow_query\": true"), std::string::npos);
  EXPECT_NE(record.find("\"query_id\": 7"), std::string::npos);
  EXPECT_NE(record.find("\"total_us\": 12345"), std::string::npos);
  EXPECT_NE(record.find("\"query\": \"anc(a, X)\""), std::string::npos);
  // One line: structured consumers read records newline-delimited.
  EXPECT_EQ(record.find('\n'), std::string::npos);
}

TEST(FlightRecorderTest, SlowRecordTextKeepsTheQueryOnOneLine) {
  // A goal constant may hold a newline, a quote or a backslash. The text
  // form escapes them as the JSON form does, so a query cannot split its
  // record or forge a second one.
  QueryLogEntry entry = Entry(7, 12345);
  entry.query = "p('x\n[dkb slow query] id=999 forged=1', \"q\", 'a\\b')";
  const std::string record =
      FlightRecorder::FormatSlowRecord(entry, /*json=*/false);
  EXPECT_EQ(record.find('\n'), std::string::npos) << record;
  const std::string escaped =
      R"(p('x\n[dkb slow query] id=999 forged=1', \"q\", 'a\\b'))";
  EXPECT_NE(record.find("query=\"" + escaped + "\""), std::string::npos)
      << record;
}

TEST(FlightRecorderTest, MakeEntryFlattensReportAndIterations) {
  QueryReport report;
  report.plan.query = "tc(a, X)";
  report.plan.strategy = "semi-naive";
  report.plan.magic_applied = true;
  report.from_cache = false;
  report.executed = true;
  report.total_us = 777;
  report.compile.t_setup_us = 5;
  report.exec.iterations = 3;
  lfp::NodeStats node;
  node.label = "tc";
  node.is_clique = true;
  node.delta_sizes = {4, 2, 0};
  report.exec.nodes.push_back(node);

  QueryLogEntry entry =
      FlightRecorder::MakeEntry(report, /*query_id=*/9, /*session_id=*/2,
                                /*rows_out=*/6);
  EXPECT_EQ(entry.query_id, 9);
  EXPECT_EQ(entry.session_id, 2);
  EXPECT_GT(entry.ts_us, 0);
  EXPECT_EQ(entry.query, "tc(a, X)");
  EXPECT_TRUE(entry.magic);
  EXPECT_TRUE(entry.executed);
  EXPECT_EQ(entry.rows_out, 6);
  EXPECT_EQ(entry.iterations, 3);
  EXPECT_EQ(entry.total_us, 777);
  // Phases in Table 4/5 order: nine compile phases then four execution.
  ASSERT_EQ(entry.phases.size(), 13u);
  EXPECT_EQ(entry.phases[0].name, "t_setup");
  EXPECT_EQ(entry.phases[0].micros, 5);
  EXPECT_EQ(entry.phases[12].name, "t_final");
  // One sub-record per iteration of the clique node.
  ASSERT_EQ(entry.lfp_iterations.size(), 3u);
  EXPECT_EQ(entry.lfp_iterations[0].node, "tc");
  EXPECT_TRUE(entry.lfp_iterations[0].is_clique);
  EXPECT_EQ(entry.lfp_iterations[0].iter, 1);
  EXPECT_EQ(entry.lfp_iterations[0].delta_rows, 4);
  EXPECT_EQ(entry.lfp_iterations[2].iter, 3);
  EXPECT_EQ(entry.lfp_iterations[2].delta_rows, 0);
  EXPECT_EQ(entry.trace, nullptr);
}

TEST(FlightRecorderTest, TracedEntrySharesTheReportContext) {
  QueryReport report;
  report.plan.query = "anc(a, X)";
  report.trace = std::make_shared<trace::TraceContext>("query:anc(a, X)");
  report.trace->root()->End();
  QueryLogEntry entry =
      FlightRecorder::MakeEntry(report, /*query_id=*/1, /*session_id=*/0,
                                /*rows_out=*/0);
  // No per-query deep copy: the entry references the settled context.
  EXPECT_EQ(entry.trace.get(), report.trace.get());
}

}  // namespace
}  // namespace dkb::testbed
