// Genealogy workload: a large synthetic family tree, comparing naive and
// semi-naive LFP evaluation and the effect of the magic sets optimization
// on a selective query — the scenario that motivates the paper's Test 7.
//
//   $ ./build/examples/genealogy [tree_depth]

#include <cstdio>
#include <cstdlib>

#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace {

void Report(const char* label, const dkb::testbed::QueryOutcome& outcome) {
  std::printf("  %-28s %8.2f ms   %5zu answers   %lld iterations\n", label,
              outcome.report.exec.t_total_us / 1000.0, outcome.result.rows.size(),
              static_cast<long long>(outcome.report.exec.iterations));
}

}  // namespace

int main(int argc, char** argv) {
  using dkb::lfp::LfpStrategy;
  using dkb::testbed::QueryOptions;
  using dkb::testbed::Testbed;

  int depth = (argc > 1) ? std::atoi(argv[1]) : 10;
  auto tb_or = Testbed::Create();
  if (!tb_or.ok()) return 1;
  auto tb = std::move(*tb_or);

  auto tree = dkb::workload::MakeFullBinaryTrees(1, depth);
  std::printf("family tree: depth %d, %zu parent facts\n\n", depth,
              tree.num_tuples());

  dkb::Status s = tb->Consult(dkb::workload::AncestorRules());
  if (!s.ok()) return 1;
  s = tb->DefineBase("parent",
                     {dkb::DataType::kVarchar, dkb::DataType::kVarchar});
  if (!s.ok()) return 1;
  s = tb->AddFacts("parent", tree.ToTuples());
  if (!s.ok()) return 1;

  // A selective query: descendants of a node a few levels down.
  std::string root = dkb::workload::TreeNodeName(0, 15);  // level 4
  std::string goal = "?- ancestor('" + root + "', W).";
  std::printf("query: %s\n\n", goal.c_str());

  for (auto [label, strategy, magic] :
       {std::tuple{"naive", LfpStrategy::kNaive, false},
        std::tuple{"semi-naive", LfpStrategy::kSemiNaive, false},
        std::tuple{"semi-naive + magic sets", LfpStrategy::kSemiNaive, true}}) {
    QueryOptions opts = (magic ? QueryOptions::Magic()
                               : QueryOptions::SemiNaive())
                            .WithStrategy(strategy);
    auto outcome = tb->Query(goal, opts);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", label,
                   outcome.status().ToString().c_str());
      return 1;
    }
    Report(label, *outcome);
  }

  std::printf(
      "\nNote how the magic sets rewrite makes execution proportional to\n"
      "the queried sub-tree rather than the whole genealogy.\n");
  return 0;
}
