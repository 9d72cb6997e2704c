// Ablation for the supplementary magic sets variant (paper §2.5): the
// generalized scheme re-evaluates each rule's prefix join once in the magic
// rule and again in the modified rule; the supplementary scheme
// materializes it once. Same-generation (a 3-atom recursive body) is the
// classic case where this pays.

#include "bench_setup.h"

namespace dkb::bench {
namespace {

std::unique_ptr<testbed::Testbed> SgTestbed(int depth) {
  auto tb = Unwrap(testbed::Testbed::Create(), "create");
  CheckOk(tb->Consult(workload::SameGenerationRules()), "consult");
  auto tree = workload::MakeFullBinaryTrees(1, depth);
  std::vector<Tuple> up;
  std::vector<Tuple> down;
  for (const auto& [mgr, emp] : tree.edges) {
    up.push_back({Value(emp), Value(mgr)});
    down.push_back({Value(mgr), Value(emp)});
  }
  for (const char* pred : {"up", "down", "flat"}) {
    CheckOk(tb->DefineBase(pred, {DataType::kVarchar, DataType::kVarchar}),
            "define");
  }
  CheckOk(tb->AddFacts("up", up), "up");
  CheckOk(tb->AddFacts("down", down), "down");
  CheckOk(tb->AddFacts("flat", {{Value("t0_0"), Value("t0_0")}}), "flat");
  return tb;
}

}  // namespace

void AblationSupplementary(Report* report) {
  report->Banner("Ablation - generalized vs supplementary magic sets",
                 "SIGMOD'88 D/KB testbed, Section 2.5 (strategy survey)",
                 "supplementary magic trades extra materialization (sup_i "
                 "tables, more statements per LFP iteration) for avoided "
                 "prefix re-joins; it pays when joins are expensive (the "
                 "paper's disk DBMS) and costs when per-statement overhead "
                 "dominates (this in-memory engine) - the ratio should "
                 "improve with depth either way");

  const int kReps = Reps(3, 1);
  Table table({Count("tree_depth"), Count("answers"), Micros("t_plain"),
               Micros("t_magic"), Micros("t_supplementary"),
               Ratio("sup_vs_magic")});
  for (int depth : Sweep({5, 6, 7, 8})) {
    auto tb = SgTestbed(depth);
    // Same-generation peers of the leftmost leaf.
    std::string leaf = workload::TreeNodeName(0, (1 << (depth - 1)) - 1);
    std::string goal = "?- sg('" + leaf + "', W).";

    auto timed = [&](bool magic, bool sup, size_t* answers) {
      testbed::QueryOptions opts =
          sup   ? testbed::QueryOptions::SupplementaryMagic()
          : magic ? testbed::QueryOptions::Magic()
                  : testbed::QueryOptions::SemiNaive();
      return MedianMicros(kReps, [&]() {
        auto outcome = Unwrap(tb->Query(goal, opts), "query");
        if (answers != nullptr) *answers = outcome.result.rows.size();
        return outcome.report.exec.t_total_us;
      });
    };
    size_t answers = 0;
    int64_t t_plain = timed(false, false, &answers);
    int64_t t_magic = timed(true, false, nullptr);
    int64_t t_sup = timed(true, true, nullptr);
    table.Row({depth, answers, t_plain, t_magic, t_sup,
               static_cast<double>(t_magic) / t_sup});
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
