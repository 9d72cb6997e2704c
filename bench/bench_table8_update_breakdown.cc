// Test 9 / Table 8: breakdown of the Stored-DKB update time into its
// components for a large (R_ws = 36) and a minimal (R_ws = 1) workspace,
// against a stored rule base of R_s = 189 rules.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

void RunCase(int r_ws, Table* table) {
  const int kRs = SmokeSize(189, 50);
  // The stored rule base; the workspace rules chain onto its relevant
  // family so the update extraction has real work to do.
  StoredRuleBaseFixture fx = MakeStoredRuleBase(kRs, 12);
  // Bushy workspace (short chains of 3 hanging onto the stored family),
  // keeping the composite closure near the paper's R_c = 137 scale rather
  // than the O(n^2) closure a single long chain would produce.
  for (int i = 0; i < r_ws; ++i) {
    std::string pred = "w" + std::to_string(i);
    std::string body = (i % 3 != 0 && i + 1 < r_ws)
                           ? "w" + std::to_string(i + 1)
                           : fx.rulebase.query_pred;
    CheckOk(fx.tb->AddRule(pred + "(X,Y) :- " + body + "(X,Y)."), "AddRule");
  }
  auto stats = Unwrap(fx.tb->UpdateStoredDkb(), "UpdateStoredDkb");
  double total = static_cast<double>(std::max<int64_t>(1, stats.total_us()));
  table->Row({r_ws, kRs, stats.closure_edges, stats.composite_rules,
              stats.affected_preds, stats.t_extract_us / total,
              stats.t_tc_us / total, stats.t_typecheck_us / total,
              stats.t_dict_us / total, stats.t_store_us / total,
              stats.total_us()});
}

}  // namespace

void Table8UpdateBreakdown(Report* report) {
  report->Banner("Test 9 / Table 8 - update time breakdown",
                 "SIGMOD'88 D/KB testbed, Section 5.3.2 Test 9, Table 8",
                 "extraction of relevant rules dominates small updates (81% "
                 "at R_ws=1 vs 42% at R_ws=36 in the paper); storing the "
                 "source form is a small share");

  Table table({Count("R_ws"), Count("R_s"), Count("closure_edges"),
               Count("composite_rules"), Count("affected_preds"),
               Percent("extract"), Percent("tc"), Percent("typecheck"),
               Percent("dict"), Percent("store"), Micros("total")});
  RunCase(SmokeSize(36, 6), &table);
  RunCase(1, &table);
  report->Add(std::move(table));
}

}  // namespace dkb::bench
