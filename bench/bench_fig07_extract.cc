// Test 1 / Figure 7: relevant-rule extraction time t_extract as a function
// of the total number of stored rules R_s, for several values of the number
// of rules relevant to the query R_rs.

#include "bench_setup.h"

namespace dkb::bench {

void Fig07Extract(Report* report) {
  report->Banner("Test 1 / Figure 7 - t_extract vs R_s",
                 "SIGMOD'88 D/KB testbed, Section 5.3.1.1 Test 1, Figure 7",
                 "t_extract is insensitive to R_s (indexed reachablepreds "
                 "join) and increases with R_rs");

  const std::vector<int> kRs = Sweep({50, 100, 200, 400, 800});
  const int kRrs[] = {1, 7, 20};
  const int kReps = Reps(15);

  Table table({Count("R_s"), Micros("R_rs=1"), Micros("R_rs=7"),
               Micros("R_rs=20")});
  for (int rs : kRs) {
    std::vector<Cell> row = {rs};
    for (int rrs : kRrs) {
      StoredRuleBaseFixture fx = MakeStoredRuleBase(rs, rrs);
      datalog::Atom goal;
      goal.predicate = fx.rulebase.query_pred;
      goal.args = {datalog::Term::Constant(Value("k")),
                   datalog::Term::Variable("W")};
      int64_t median = MedianMicros(kReps, [&]() {
        km::CompilationStats stats;
        testbed::QueryOptions opts;
        Unwrap(fx.tb->CompileOnly(goal, opts, &stats), "CompileOnly");
        return stats.t_extract_us;
      });
      row.push_back(median);
    }
    table.Row(std::move(row));
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
