// Test 8 / Figure 15: Stored-DKB update time t_u versus the total number of
// stored rules R_s, with and without compiled rule-storage structures.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

/// Average time of one single-rule update, measured over a batch (source-
/// only updates are sub-microsecond individually).
double AvgSingleRuleUpdateUs(bool compiled, int rs) {
  StoredRuleBaseFixture fx =
      MakeStoredRuleBase(rs, /*relevant_rules=*/3, /*rules_per_pred=*/1,
                         compiled);
  const int kBatch = Reps(40, 5);
  // Pre-define the base predicates outside the timed region.
  for (int i = 0; i < kBatch; ++i) {
    CheckOk(fx.tb->DefineBase("b_upd" + std::to_string(i),
                              {DataType::kVarchar, DataType::kVarchar}),
            "DefineBase");
  }
  int64_t total_us = 0;
  for (int i = 0; i < kBatch; ++i) {
    std::string pred = "upd" + std::to_string(i);
    CheckOk(fx.tb->AddRule(pred + "(X,Y) :- b_" + pred + "(X,Y)."),
            "AddRule");
    // Phase timings from the update report, not an external stopwatch.
    auto stats = Unwrap(fx.tb->UpdateStoredDkb(), "UpdateStoredDkb");
    total_us += stats.total_us();
    fx.tb->ClearWorkspace();
  }
  return static_cast<double>(total_us) / kBatch;
}

}  // namespace

void Fig15Update(Report* report) {
  report->Banner(
      "Test 8 / Figure 15 - t_u vs R_s, with/without compiled storage",
      "SIGMOD'88 D/KB testbed, Section 5.3.2 Test 8, Figure 15",
      "updates are roughly an order of magnitude faster without compiled "
      "rule storage; t_u is insensitive to R_s in both modes");

  Table table({Count("R_s"), Micros("t_u_compiled_us", 1),
               Micros("t_u_source_only_us", 1), Ratio("ratio", 1)});
  for (int rs : Sweep({9, 25, 50, 100, 189, 400})) {
    double tc = AvgSingleRuleUpdateUs(/*compiled=*/true, rs);
    double ts = AvgSingleRuleUpdateUs(/*compiled=*/false, rs);
    table.Row({rs, tc, ts, tc / std::max(0.01, ts)});
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
