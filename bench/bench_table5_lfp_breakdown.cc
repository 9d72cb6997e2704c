// Test 6 / Table 5: relative contributions of the steps inside naive and
// semi-naive LFP evaluation: temp-table management, RHS (or differential)
// evaluation, and termination checking.

#include "bench_setup.h"

namespace dkb::bench {

void Table5LfpBreakdown(Report* report) {
  report->Banner("Test 6 / Table 5 - LFP evaluation breakdown",
                 "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 6, Table 5",
                 "RHS evaluation + termination checking dominate (~95% naive, "
                 "~85% semi-naive); naive's RHS/termination work is 2.5-3x "
                 "semi-naive's");

  const int kDepth = SmokeSize(9, 6);
  const int kReps = Reps(5);
  auto tb = MakeAncestorTree(kDepth);
  datalog::Atom goal = TreeAncestorGoal(0);  // whole-tree closure

  Table table({Text("strategy"), Micros("t_temp"), Micros("t_rhs"),
               Micros("t_term"), Micros("t_total"), Percent("temp_share"),
               Percent("rhs+term_share"), Count("iterations")});
  lfp::ExecutionStats naive_stats;
  lfp::ExecutionStats semi_stats;
  for (auto [strategy, sink] :
       {std::pair{lfp::LfpStrategy::kNaive, &naive_stats},
        std::pair{lfp::LfpStrategy::kSemiNaive, &semi_stats}}) {
    testbed::QueryOptions opts =
        testbed::QueryOptions::SemiNaive().WithStrategy(strategy);
    *sink = MedianRun(
        kReps,
        [&]() { return Unwrap(tb->Query(goal, opts), "Query").report.exec; },
        [](const lfp::ExecutionStats& s) { return s.t_total_us; });
    const lfp::ExecutionStats& s = *sink;
    double total = static_cast<double>(
        std::max<int64_t>(1, s.t_temp_us + s.t_rhs_us + s.t_term_us));
    table.Row({lfp::StrategyName(strategy), s.t_temp_us, s.t_rhs_us,
               s.t_term_us, s.t_total_us, s.t_temp_us / total,
               (s.t_rhs_us + s.t_term_us) / total, s.iterations});
  }
  report->Add(std::move(table));

  // RHS+termination work of naive over that of semi-naive.
  report->Value(Ratio("rhs_term_work_ratio"),
                static_cast<double>(naive_stats.t_rhs_us +
                                    naive_stats.t_term_us) /
                    std::max<int64_t>(1, semi_stats.t_rhs_us +
                                             semi_stats.t_term_us));
}

}  // namespace dkb::bench
