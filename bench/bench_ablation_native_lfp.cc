// Ablation for the paper's conclusions #6 and #8: the semi-naive SQL loop,
// which is the generalized LFP operator inside the DBMS (planned once, paid
// per delta, no table copies), versus the special transitive-closure
// operator that native-tc runs for a clique of TC shape.

#include "bench_setup.h"

namespace dkb::bench {

void AblationNativeLfp(Report* report) {
  report->Banner("Ablation - SQL-loop LFP vs transitive-closure operator",
                 "SIGMOD'88 D/KB testbed, Conclusions #6 and #8",
                 "a special operator for a recognized recursion shape beats "
                 "the general LFP operator");

  const int kReps = Reps(3, 1);
  Table table({Count("tree_depth"), Count("parent_tuples"),
               Micros("t_seminaive_sql"), Micros("t_native_tc"),
               Ratio("tc_speedup"), Percent("sql_temp_share")});
  for (int depth : Sweep({7, 8, 9, 10, 11})) {
    auto tb = MakeAncestorTree(depth);
    datalog::Atom goal = TreeAncestorGoal(0);

    testbed::QueryOptions sql = testbed::QueryOptions::SemiNaive();
    testbed::QueryOptions tc =
        testbed::QueryOptions::SemiNaive().WithStrategy(
            lfp::LfpStrategy::kNativeTc);

    const lfp::ExecutionStats sql_stats = MedianRun(
        kReps,
        [&]() { return Unwrap(tb->Query(goal, sql), "sql query").report.exec; },
        [](const lfp::ExecutionStats& s) { return s.t_total_us; });
    const int64_t t_sql = sql_stats.t_total_us;
    int64_t t_tc = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, tc), "tc query").report.exec.t_total_us;
    });
    double temp_share =
        static_cast<double>(sql_stats.t_temp_us) /
        std::max<int64_t>(1, sql_stats.t_temp_us + sql_stats.t_rhs_us +
                                 sql_stats.t_term_us);
    table.Row({depth, (1 << depth) - 2, t_sql, t_tc,
               static_cast<double>(t_sql) / t_tc, temp_share});
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
