// Ablation for the paper's conclusion #6: augmenting the DBMS with a native
// LFP operator (no SQL round trips, pointer-swapped deltas, early-exit
// termination checks) versus driving the DBMS with embedded-SQL loops.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void Run() {
  Banner("Ablation - SQL-loop LFP vs native in-engine LFP operator",
         "SIGMOD'88 D/KB testbed, Conclusion #6",
         "the native LFP operator eliminates table-copy and set-difference "
         "overheads; the gap widens with relation size");

  const int kReps = Reps(3, 1);
  TablePrinter table({"tree_depth", "parent_tuples", "t_seminaive_sql",
                      "t_native_lfp", "t_native_tc", "native_speedup",
                      "tc_speedup", "sql_temp_share"});
  for (int depth : Sweep({7, 8, 9, 10, 11})) {
    auto tb = MakeAncestorTree(depth);
    datalog::Atom goal = TreeAncestorGoal(0);

    testbed::QueryOptions sql = testbed::QueryOptions::SemiNaive();
    testbed::QueryOptions native =
        testbed::QueryOptions::SemiNaive().WithStrategy(
            lfp::LfpStrategy::kNative);
    testbed::QueryOptions tc =
        testbed::QueryOptions::SemiNaive().WithStrategy(
            lfp::LfpStrategy::kNativeTc);

    lfp::ExecutionStats sql_stats;
    int64_t t_sql = MedianMicros(kReps, [&]() {
      auto outcome = Unwrap(tb->Query(goal, sql), "sql query");
      sql_stats = outcome.report.exec;
      return outcome.report.exec.t_total_us;
    });
    int64_t t_native = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, native), "native query").report.exec.t_total_us;
    });
    int64_t t_tc = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, tc), "tc query").report.exec.t_total_us;
    });
    double temp_share =
        static_cast<double>(sql_stats.t_temp_us) /
        std::max<int64_t>(1, sql_stats.t_temp_us + sql_stats.t_rhs_us +
                                 sql_stats.t_term_us);
    table.AddRow({std::to_string(depth),
                  std::to_string((1 << depth) - 2), FormatUs(t_sql),
                  FormatUs(t_native), FormatUs(t_tc),
                  FormatF(static_cast<double>(t_sql) / t_native, 2),
                  FormatF(static_cast<double>(t_sql) / t_tc, 2),
                  FormatPct(temp_share)});
  }
  table.Print();
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) {
  dkb::bench::ParseBenchArgs(argc, argv);
  dkb::bench::Run();
  return 0;
}
