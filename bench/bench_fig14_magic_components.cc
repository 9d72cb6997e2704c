// Test 7 / Figure 14: with magic sets enabled, the execution splits into
// two LFP computations — the magic-rules clique (computes the relevant-fact
// set) and the modified-rules clique (computes answers against it). This
// bench times each as a function of query selectivity.

#include "bench_setup.h"
#include "magic/adornment.h"

namespace dkb::bench {

void Fig14MagicComponents(Report* report) {
  report->Banner("Test 7 / Figure 14 - magic vs modified rules LFP time",
                 "SIGMOD'88 D/KB testbed, Section 5.3.1.2 Test 7, Figure 14",
                 "the modified-rules evaluation is more selectivity-sensitive "
                 "than the magic-rules evaluation (it computes D_rel-sized "
                 "closures)");

  const int kDepth = SmokeSize(11, 7);
  const int kReps = Reps(3, 1);
  auto tb = MakeAncestorTree(kDepth);
  const double dtot = static_cast<double>(workload::SubtreeSize(kDepth, 0));

  Table table({Count("level"), Percent("selectivity"),
               Micros("t_magic_clique"), Micros("t_modified_clique"),
               Count("magic_tuples"), Count("modified_tuples")});
  for (int level : Sweep({1, 2, 3, 4, 5, 7, 9})) {
    datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
    testbed::QueryOptions opts = testbed::QueryOptions::Magic();
    const lfp::ExecutionStats exec = MedianRun(
        kReps,
        [&]() { return Unwrap(tb->Query(goal, opts), "Query").report.exec; },
        [](const lfp::ExecutionStats& s) { return s.t_total_us; });

    int64_t t_magic = 0;
    int64_t t_modified = 0;
    int64_t n_magic = 0;
    int64_t n_modified = 0;
    for (const lfp::NodeStats& ns : exec.nodes) {
      // A node's label is its predicate list; magic cliques contain only
      // magic predicates.
      if (magic::IsMagicPredicateName(ns.label)) {
        t_magic += ns.t_us;
        n_magic += ns.tuples;
      } else {
        t_modified += ns.t_us;
        n_modified += ns.tuples;
      }
    }
    double sel = workload::SubtreeSize(kDepth, level) / dtot;
    table.Row({level, sel, t_magic, t_modified, n_magic, n_modified});
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
