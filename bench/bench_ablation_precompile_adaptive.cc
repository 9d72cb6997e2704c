// Ablations for the paper's conclusions #3 and #4:
//  * precompiled queries amortize compilation for repeated goals, at the
//    price of invalidation bookkeeping on updates;
//  * the dynamic optimization decision ("switch magic on for low
//    selectivity, off for others") tracks the better of the two static
//    policies across the selectivity range.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void RunPrecompile(Report* report) {
  // t_form_hit: the same query form with a fresh constant on every rep,
  // served by the one cached program bound to that constant. It is the
  // query's whole wall time (QueryReport::total_us: cache lookup, binding
  // and execution), where t_cached_total counts only compile + execute.
  Table table({Count("R_rs"), Micros("t_first_total"),
               Micros("t_cached_total"), Micros("t_form_hit"),
               Micros("compile_saved"), Ratio("speedup")},
              "Conclusion #3: precompiled queries");
  auto goal_for = [](const std::string& pred, const std::string& constant) {
    datalog::Atom goal;
    goal.predicate = pred;
    goal.args = {datalog::Term::Constant(Value(constant)),
                 datalog::Term::Variable("W")};
    return goal;
  };
  for (int rrs : Sweep({1, 7, 20, 40})) {
    StoredRuleBaseFixture fx = MakeStoredRuleBase(SmokeSize(200, 100), rrs);
    const datalog::Atom goal = goal_for(fx.rulebase.query_pred, "k");
    testbed::QueryOptions opts =
        testbed::QueryOptions::SemiNaive().WithCache();
    auto first = Unwrap(fx.tb->Query(goal, opts), "first query");
    int64_t t_first = first.report.compile.total_us() + first.report.exec.t_total_us;
    int64_t t_cached = MedianMicros(Reps(9), [&]() {
      auto outcome = Unwrap(fx.tb->Query(goal, opts), "cached query");
      return outcome.report.compile.total_us() + outcome.report.exec.t_total_us;
    });
    int fresh = 0;
    int64_t t_form_hit = MedianMicros(Reps(9), [&]() {
      const datalog::Atom other = goal_for(fx.rulebase.query_pred,
                                           "k" + std::to_string(++fresh));
      auto outcome = Unwrap(fx.tb->Query(other, opts), "form hit");
      if (!outcome.report.from_cache) {
        CheckOk(Status::Internal("missed the cache"), "form hit");
      }
      return outcome.report.total_us;
    });
    table.Row({rrs, t_first, t_cached, t_form_hit,
               first.report.compile.total_us(),
               static_cast<double>(t_first) / std::max<int64_t>(1, t_cached)});
  }
  report->Add(std::move(table));
}

void RunAdaptive(Report* report) {
  const int kDepth = SmokeSize(10, 6);
  const int kReps = Reps(3, 1);
  // Unindexed EDB: the configuration where always-on magic actually loses
  // at high selectivity (see fig13_magic_crossover).
  auto tb = MakeAncestorTree(kDepth, /*index_edb=*/false);
  const double dtot = static_cast<double>(workload::SubtreeSize(kDepth, 0));

  Table table({Count("level"), Percent("selectivity"), Micros("t_off"),
               Micros("t_on"), Micros("t_adaptive"),
               Text("adaptive_chose_magic")},
              "Conclusion #4: dynamic magic-sets decision (unindexed "
              "depth-" + std::to_string(kDepth) + " tree)");
  for (int level : Sweep({0, 1, 2, 4, 6, 8})) {
    datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
    auto timed = [&](bool magic, bool adaptive, bool* chose) {
      testbed::QueryOptions opts =
          adaptive ? testbed::QueryOptions::Adaptive()
          : magic  ? testbed::QueryOptions::Magic()
                   : testbed::QueryOptions::SemiNaive();
      return MedianMicros(kReps, [&]() {
        auto outcome = Unwrap(tb->Query(goal, opts), "query");
        if (chose != nullptr) *chose = outcome.report.compile.magic_applied;
        // Include compilation: the adaptive estimate is a compile-time cost.
        return outcome.report.compile.total_us() + outcome.report.exec.t_total_us;
      });
    };
    bool chose = false;
    int64_t t_off = timed(false, false, nullptr);
    int64_t t_on = timed(true, false, nullptr);
    int64_t t_adaptive = timed(false, true, &chose);
    double sel = workload::SubtreeSize(kDepth, level) / dtot;
    table.Row({level, sel, t_off, t_on, t_adaptive, chose ? "yes" : "no"});
  }
  report->Add(std::move(table));
}

}  // namespace

void AblationPrecompileAdaptive(Report* report) {
  report->Banner(
      "Ablation - precompiled queries (conclusion #3) and the dynamic "
      "magic-sets decision (conclusion #4)",
      "SIGMOD'88 D/KB testbed, Conclusions, items 3 and 4 / Section 4.2 "
      "step 5",
      "precompilation pays for frequently occurring queries with large "
      "R_rs, and updates pay an invalidation cost; the adaptive policy "
      "tracks the better static policy on both sides of the selectivity "
      "crossover");
  RunPrecompile(report);
  RunAdaptive(report);
}

}  // namespace dkb::bench
