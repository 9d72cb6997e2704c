// Test 5 / Figure 12: the impact of redundant work — naive vs semi-naive
// LFP evaluation across queries of varying relevant-fact fraction.

#include "bench_setup.h"

namespace dkb::bench {

void Fig12NaiveVsSeminaive(Report* report) {
  report->Banner("Test 5 / Figure 12 - naive vs semi-naive t_e",
                 "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 5, Figure 12",
                 "semi-naive is roughly 2.5-3x faster than naive (redundant "
                 "recomputation avoided)");

  const int kDepth = SmokeSize(9, 6);
  const int kReps = Reps(5);
  auto tb = MakeAncestorTree(kDepth);
  const double dtot = static_cast<double>(workload::SubtreeSize(kDepth, 0));

  Table table({Count("query_root_level"), Ratio("D_rel/D_tot", 4),
               Micros("t_e_naive"), Micros("t_e_seminaive"),
               Ratio("naive/seminaive")});
  for (int level : Sweep({0, 1, 2, 3, 4})) {
    datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
    testbed::QueryOptions naive = testbed::QueryOptions::Naive();
    testbed::QueryOptions semi = testbed::QueryOptions::SemiNaive();
    int64_t tn = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, naive), "naive").report.exec.t_total_us;
    });
    int64_t ts = MedianMicros(kReps, [&]() {
      return Unwrap(tb->Query(goal, semi), "semi").report.exec.t_total_us;
    });
    double drel = static_cast<double>(workload::SubtreeSize(kDepth, level));
    table.Row({level, drel / dtot, tn, ts, static_cast<double>(tn) / ts});
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
