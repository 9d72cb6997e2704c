// Test 7 / Figure 13: query execution time versus query selectivity
// (D_rel/D_tot) with and without the generalized magic sets optimization,
// for both naive and semi-naive LFP evaluation. The paper reports a
// crossover (~72% selectivity for semi-naive, ~85% for naive) beyond which
// the optimization overhead outweighs its benefit, and
// orders-of-magnitude wins at very low selectivity.

#include "bench_setup.h"

namespace dkb::bench {

void Fig13MagicCrossover(Report* report) {
  report->Banner("Test 7 / Figure 13 - magic sets on/off vs selectivity",
                 "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 7, Figure 13",
                 "without magic t_e is flat in selectivity; with magic t_e "
                 "grows with selectivity; magic wins by orders of magnitude at "
                 "low selectivity and loses past a high-selectivity crossover "
                 "(speedup > 1 means magic wins; the crossover is where it "
                 "drops below 1)");

  auto run_series = [&](int depth, bool index_edb, std::string caption) {
    const int kReps = Reps(3, 1);
    auto tb = MakeAncestorTree(depth, index_edb);
    const double dtot = static_cast<double>(workload::SubtreeSize(depth, 0));
    Table table({Count("level"), Percent("selectivity"), Micros("semi_plain"),
                 Micros("semi_magic"), Micros("naive_plain"),
                 Micros("naive_magic"), Ratio("semi_speedup"),
                 Ratio("naive_speedup")},
                std::move(caption));
    for (int level : Sweep({0, 1, 2, 3, 5, 7, 9})) {
      datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
      auto timed = [&](lfp::LfpStrategy strategy, bool magic) {
        testbed::QueryOptions opts =
            (magic ? testbed::QueryOptions::Magic()
                   : testbed::QueryOptions::SemiNaive())
                .WithStrategy(strategy);
        return MedianMicros(kReps, [&]() {
          return Unwrap(tb->Query(goal, opts), "Query").report.exec.t_total_us;
        });
      };
      int64_t sp = timed(lfp::LfpStrategy::kSemiNaive, false);
      int64_t sm = timed(lfp::LfpStrategy::kSemiNaive, true);
      int64_t np = timed(lfp::LfpStrategy::kNaive, false);
      int64_t nm = timed(lfp::LfpStrategy::kNaive, true);
      double sel = workload::SubtreeSize(depth, level) / dtot;
      table.Row({level, sel, sp, sm, np, nm, static_cast<double>(sp) / sm,
                 static_cast<double>(np) / nm});
    }
    report->Add(std::move(table));
  };

  const int depth_a = SmokeSize(11, 7);
  run_series(depth_a, /*index_edb=*/true,
             "Configuration A: indexed parent relation (depth-" +
                 std::to_string(depth_a) + " tree)");
  const int depth_b = SmokeSize(10, 6);
  run_series(depth_b, /*index_edb=*/false,
             "Configuration B: unindexed parent relation (depth-" +
                 std::to_string(depth_b) +
                 " tree) - the magic LFP pays full scans per iteration, "
                 "exposing the paper's high-selectivity crossover");
}

}  // namespace dkb::bench
