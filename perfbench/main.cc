// Repository benchmark runner.
//
//   dkb_perfbench --workload <closure_tree|point_magic|write_mix>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--short] [--scratch <dir>] [--out <dir>]
//
// Prints a detail line, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, which are also written with the Chrome trace of the
// benchmark's spans to <out>/<workload>-seed<n>-{layers,trace}.json.
// Exits 1 when any operation failed or returned a wrong answer.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: dkb_perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--short] [--scratch DIR] "
               "[--out DIR]\n",
               why);
  return 2;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const RunOutput& run) {
  const bool correct = run.failed == 0 && run.attempted > 0;
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(run.attempted) +
                    ", \"failed\": " + std::to_string(run.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::trunc);
  f << text;
  return static_cast<bool>(f);
}

int Main(int argc, char** argv) {
  // The engine runs without its intra-query worker pool: figures then do
  // not depend on the host's core count, and on a shared host the tails do
  // not wait on the slowest parallel morsel. Set before any pool exists.
  ::setenv("DKB_THREADS", "0", /*overwrite=*/1);
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      args.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (args.scratch_dir.empty()) {
    args.scratch_dir = ".bench_scratch/" + args.workload + "-" +
                       std::to_string(static_cast<long long>(::getpid()));
  }
  if (args.out_dir.empty()) args.out_dir = ".bench_out";
  std::filesystem::create_directories(args.scratch_dir);

  RunOutput run = RunWorkload(args);
  std::filesystem::remove_all(args.scratch_dir);

  const std::string result = ResultJson(run);
  std::printf("perfbench: %s attempted=%lld failed=%lld failed_frac=%s\n",
              run.detail.c_str(), static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed),
              Number(run.attempted > 0 ? static_cast<double>(run.failed) /
                                             static_cast<double>(run.attempted)
                                       : 1)
                  .c_str());
  if (args.trace && !run.logs.empty()) {
    std::filesystem::create_directories(args.out_dir);
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    std::vector<const SpanLog*> logs;
    for (const auto& log : run.logs) logs.push_back(log.get());
    if (!WriteFile(stem + "-layers.json",
                   "{\"workload\": \"" + args.workload + "\", \"seed\": " +
                       std::to_string(args.seed) + ", \"result\": " + result +
                       "}\n") ||
        !WriteFile(stem + "-trace.json", ChromeTrace(logs))) {
      std::fprintf(stderr, "perfbench: cannot write %s-*.json\n",
                   stem.c_str());
      run.failed += 1;
    } else {
      std::printf("perfbench: wrote %s-layers.json and %s-trace.json\n",
                  stem.c_str(), stem.c_str());
    }
  }
  std::printf("%s\n", ResultJson(run).c_str());
  std::fflush(stdout);
  return run.failed == 0 && run.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
