// Test 2 / Figure 9: data-dictionary read time t_read as a function of the
// total number of derived predicates stored, P_s, for several P_rs values.

#include "bench_setup.h"

namespace dkb::bench {

void Fig09DictRead(Report* report) {
  report->Banner("Test 2 / Figure 9 - t_read vs P_s",
                 "SIGMOD'88 D/KB testbed, Section 5.3.1.1 Test 2, Figure 9",
                 "t_read is insensitive to P_s (indexed dictionary relations)");

  // One rule per predicate, so P_s == R_s and P_rs == R_rs.
  const std::vector<int> kPs = Sweep({50, 100, 200, 400, 800});
  const int kPrs[] = {1, 4, 10};
  const int kReps = Reps(15);

  Table table({Count("P_s"), Micros("P_rs=1"), Micros("P_rs=4"),
               Micros("P_rs=10")});
  for (int ps : kPs) {
    std::vector<Cell> row = {ps};
    for (int prs : kPrs) {
      StoredRuleBaseFixture fx = MakeStoredRuleBase(ps, prs);
      datalog::Atom goal;
      goal.predicate = fx.rulebase.query_pred;
      goal.args = {datalog::Term::Constant(Value("k")),
                   datalog::Term::Variable("W")};
      int64_t median = MedianMicros(kReps, [&]() {
        km::CompilationStats stats;
        testbed::QueryOptions opts;
        Unwrap(fx.tb->CompileOnly(goal, opts, &stats), "CompileOnly");
        return stats.t_read_us;
      });
      row.push_back(median);
    }
    table.Row(std::move(row));
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
