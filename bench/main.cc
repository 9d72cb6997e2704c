// dkb_bench: the paper's evaluation (Figures 7-15, Tables 4/5/8), the
// conclusion ablations and the benches of the testbed's extensions, in one
// process.
//
//   dkb_bench [--smoke] [--connect HOST:PORT] [NAME...]
//
// Without a NAME every bench runs, in the order of kBenches. Each prints
// its banner and tables as it goes, and the run writes all of them to
// BENCH_paper.json (schema_version 3) in the working directory. --smoke
// shrinks every sweep and rep count so the whole suite takes seconds (ctest
// runs it as dkb_bench_smoke). --connect points the net bench at a running
// dkb_server instead of an in-process one.

#include <malloc.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "report.h"

namespace dkb::bench {

void Fig07Extract(Report* report);
void Fig08ExtractRrs(Report* report);
void Fig09DictRead(Report* report);
void Fig10DictReadPrs(Report* report);
void Table4CompileBreakdown(Report* report);
void Fig11RelevantFacts(Report* report);
void Fig12NaiveVsSeminaive(Report* report);
void Table5LfpBreakdown(Report* report);
void Fig13MagicCrossover(Report* report);
void Fig14MagicComponents(Report* report);
void Fig15Update(Report* report);
void Table8UpdateBreakdown(Report* report);
void AblationNativeLfp(Report* report);
void AblationPrecompileAdaptive(Report* report);
void AblationSupplementary(Report* report);
void DataCharacterization(Report* report);
void Concurrency(Report* report);
void Net(Report* report);
void Shard(Report* report);
void Wal(Report* report);
void Micro(Report* report);

namespace {

struct Bench {
  const char* name;  // the source file's stem without "bench_"
  void (*run)(Report* report);
};

/// The suite: the paper's tests in paper order, its conclusion ablations
/// and data characterization, the benches of the extensions, then the
/// engine's primitives.
constexpr Bench kBenches[] = {
    {"fig07_extract", Fig07Extract},
    {"fig08_extract_rrs", Fig08ExtractRrs},
    {"fig09_dict_read", Fig09DictRead},
    {"fig10_dict_read_prs", Fig10DictReadPrs},
    {"table4_compile_breakdown", Table4CompileBreakdown},
    {"fig11_relevant_facts", Fig11RelevantFacts},
    {"fig12_naive_vs_seminaive", Fig12NaiveVsSeminaive},
    {"table5_lfp_breakdown", Table5LfpBreakdown},
    {"fig13_magic_crossover", Fig13MagicCrossover},
    {"fig14_magic_components", Fig14MagicComponents},
    {"fig15_update", Fig15Update},
    {"table8_update_breakdown", Table8UpdateBreakdown},
    {"ablation_native_lfp", AblationNativeLfp},
    {"ablation_precompile_adaptive", AblationPrecompileAdaptive},
    {"ablation_supplementary", AblationSupplementary},
    {"data_characterization", DataCharacterization},
    {"concurrency", Concurrency},
    {"net", Net},
    {"shard", Shard},
    {"wal", Wal},
    {"micro", Micro},
};

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "dkb_bench: %s\n"
               "usage: dkb_bench [--smoke] [--connect HOST:PORT] [NAME...]\n"
               "names:",
               problem.c_str());
  for (const Bench& bench : kBenches) std::fprintf(stderr, " %s", bench.name);
  std::fprintf(stderr, "\n");
  return 2;
}

const Bench* Find(const std::string& name) {
  for (const Bench& bench : kBenches) {
    if (name == bench.name) return &bench;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const char* const kOut = "BENCH_paper.json";
  std::vector<const Bench*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      SmokeMode() = true;
    } else if (arg == "--connect") {
      if (i + 1 == argc) return Usage("--connect needs HOST:PORT");
      ConnectTarget() = argv[++i];
    } else if (const Bench* bench = Find(arg)) {
      selected.push_back(bench);
    } else {
      return Usage("unknown " + std::string(arg[0] == '-' ? "flag " : "bench ") +
                   arg);
    }
  }
  if (selected.empty()) {
    for (const Bench& bench : kBenches) selected.push_back(&bench);
  }

  // glibc raises its mmap threshold to the size of the largest mmapped
  // block freed so far, so one bench's teardown would move every later
  // bench's large allocations from mmap onto the heap; after fig07, Figure
  // 12's naive/semi-naive ratio read about 4% lower (EXPERIMENTS.md, "One
  // process"). Fixing the threshold at glibc's default keeps each bench's
  // large allocations independent of the benches before it. Under a
  // sanitizer, whose allocator replaces glibc's, the call has no effect.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  std::vector<Report> reports;
  reports.reserve(selected.size());
  for (const Bench* bench : selected) {
    reports.emplace_back(bench->name);
    bench->run(&reports.back());
  }
  CheckOk(WriteSuiteJson(kOut, reports), "write BENCH_paper.json");
  std::printf("[dkb_bench] %zu bench(es) written to %s (schema_version %d)\n",
              reports.size(), kOut, kBenchJsonSchemaVersion);
  return 0;
}

}  // namespace
}  // namespace dkb::bench

int main(int argc, char** argv) { return dkb::bench::Main(argc, argv); }
