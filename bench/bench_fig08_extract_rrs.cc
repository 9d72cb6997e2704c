// Test 1 / Figure 8: relevant-rule extraction time t_extract as a function
// of the number of relevant rules R_rs at a fixed rule-base size.

#include "bench_setup.h"

namespace dkb::bench {

void Fig08ExtractRrs(Report* report) {
  report->Banner("Test 1 / Figure 8 - t_extract vs R_rs",
                 "SIGMOD'88 D/KB testbed, Section 5.3.1.1 Test 1, Figure 8",
                 "t_extract grows with R_rs (extraction-join selectivity), "
                 "roughly linearly");

  const int kRs = SmokeSize(400, 100);
  const std::vector<int> kRrs = Sweep({1, 2, 5, 10, 20, 40, 80});
  const int kReps = Reps(15);

  Table table({Count("R_rs"), Micros("t_extract"), Count("rules_extracted")});
  for (int rrs : kRrs) {
    StoredRuleBaseFixture fx = MakeStoredRuleBase(kRs, rrs);
    datalog::Atom goal;
    goal.predicate = fx.rulebase.query_pred;
    goal.args = {datalog::Term::Constant(Value("k")),
                 datalog::Term::Variable("W")};
    km::CompilationStats last;
    int64_t median = MedianMicros(kReps, [&]() {
      testbed::QueryOptions opts;
      Unwrap(fx.tb->CompileOnly(goal, opts, &last), "CompileOnly");
      return last.t_extract_us;
    });
    table.Row({rrs, median, last.rules_extracted_stored});
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
