// Sharded data plane: the Figure 12 / Figure 13 semi-naive workloads at
// roughly 10x the paper's data size (depth-13 tree, ~16k parent edges,
// vs the paper's depth-9 ~1k), run at shards=1 and shards=4. On a
// multi-core host the shard x morsel grid should put scans, hash-join
// builds, and per-shard LFP delta maintenance on all cores; shards=1 is
// the guard that the redesigned ScanSource path costs nothing when the
// layout is classic.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_setup.h"
#include "common/thread_pool.h"

namespace dkb::bench {
namespace {

std::unique_ptr<testbed::Testbed> MakeShardedTree(int depth, size_t shards) {
  testbed::TestbedOptions options;
  options.stored.index_edb_first_column = true;
  options.WithShards(shards);
  auto tb = Unwrap(testbed::Testbed::Create(options), "Testbed::Create");
  CheckOk(tb->Consult(workload::AncestorRules()), "Consult");
  CheckOk(tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar}),
          "DefineBase");
  auto tree = workload::MakeFullBinaryTrees(1, depth);
  CheckOk(tb->AddFacts("parent", tree.ToTuples()), "AddFacts");
  return tb;
}

}  // namespace

void Shard(Report* report) {
  report->Banner(
      "Sharded data plane - fig12/fig13 workloads, shards=1 vs shards=4",
      "SIGMOD'88 D/KB testbed, Tests 5/7 rerun on the sharded storage "
      "layout at 10x the paper's data size",
      "shards=4 wins on multi-core hosts (shard-parallel scans and LFP "
      "deltas); shards=1 matches the classic unsharded path");

  const int kDepth = SmokeSize(13, 6);
  const int kReps = Reps(3, 1);
  auto tb1 = MakeShardedTree(kDepth, 1);
  auto tb4 = MakeShardedTree(kDepth, 4);

  int cells = 0;
  double speedup_sum = 0;

  Table table({Text("figure"), Count("level"), Micros("t_e_shards1"),
               Micros("t_e_shards4"), Ratio("speedup_4x")});
  auto run_cell = [&](const char* figure, int level,
                      const testbed::QueryOptions& opts) {
    datalog::Atom goal = TreeAncestorGoal(LeftmostAtLevel(level));
    int64_t t1 = MedianMicros(kReps, [&]() {
      return Unwrap(tb1->Query(goal, opts), "shards=1").report.exec.t_total_us;
    });
    int64_t t4 = MedianMicros(kReps, [&]() {
      return Unwrap(tb4->Query(goal, opts), "shards=4").report.exec.t_total_us;
    });
    const double speedup = static_cast<double>(t1) / static_cast<double>(t4);
    table.Row({figure, level, t1, t4, speedup});
    speedup_sum += speedup;
    ++cells;
  };

  // Figure 12's axis: semi-naive t_e across query-root levels.
  for (int level : Sweep({0, 2, 4})) {
    run_cell("fig12_seminaive", level, testbed::QueryOptions::SemiNaive());
  }
  // Figure 13's axis: the same sweep with the magic rewrite on.
  for (int level : Sweep({0, 3})) {
    run_cell("fig13_magic", level, testbed::QueryOptions::Magic());
  }
  report->Add(std::move(table));

  const size_t pool = GlobalThreadPool().num_threads();
  std::printf(
      "pool_threads=%zu; shard parallelism needs >= 2 pool workers - on "
      "smaller hosts both columns run the serial per-shard path\n",
      pool);

  report->Value(Text("workload"),
                "ancestor full binary tree depth " + std::to_string(kDepth));
  report->Value(Count("reps"), kReps);
  report->Value(Count("cells"), cells);
  report->Value(Ratio("speedup_avg"), speedup_sum / cells);
}

}  // namespace dkb::bench
