// Test 3 / Table 4: relative contributions of the D/KB query compilation
// steps as R_rs grows.

#include "bench_setup.h"

namespace dkb::bench {

void Table4CompileBreakdown(Report* report) {
  report->Banner("Test 3 / Table 4 - compilation time breakdown",
                 "SIGMOD'88 D/KB testbed, Section 5.3.1.1 Test 3, Table 4",
                 "the t_extract share grows sharply with R_rs (25% -> 67% in "
                 "the paper as R_rs goes 1 -> 20)");

  const int kRs = SmokeSize(200, 100);
  const std::vector<int> kRrs = Sweep({1, 7, 20});
  const int kReps = Reps(15);

  Table table({Count("R_rs"), Micros("t_setup"), Micros("t_extract"),
               Micros("t_read"), Micros("t_eol"), Micros("t_sem"),
               Micros("t_gen"), Micros("t_comp"), Micros("total"),
               Percent("extract_share")});
  for (int rrs : kRrs) {
    StoredRuleBaseFixture fx = MakeStoredRuleBase(kRs, rrs);
    datalog::Atom goal;
    goal.predicate = fx.rulebase.query_pred;
    goal.args = {datalog::Term::Constant(Value("k")),
                 datalog::Term::Variable("W")};
    const km::CompilationStats s = MedianRun(
        kReps,
        [&]() {
          km::CompilationStats stats;
          testbed::QueryOptions opts;
          Unwrap(fx.tb->CompileOnly(goal, opts, &stats), "CompileOnly");
          return stats;
        },
        [](const km::CompilationStats& stats) { return stats.total_us(); });
    table.Row({rrs, s.t_setup_us, s.t_extract_us, s.t_read_us, s.t_eol_us,
               s.t_sem_us, s.t_gen_us, s.t_comp_us, s.total_us(),
               static_cast<double>(s.t_extract_us) /
                   std::max<int64_t>(1, s.total_us())});
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
