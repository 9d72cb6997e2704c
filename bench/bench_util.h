#ifndef DKB_BENCH_BENCH_UTIL_H_
#define DKB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "report.h"

namespace dkb::bench {

/// Process-wide smoke switch (dkb_bench --smoke). Under it every bench
/// shrinks its sweep grids and rep counts so the whole suite finishes in
/// seconds — ctest runs it on every build to catch bit-rot in the bench
/// code, not to measure anything.
inline bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

/// dkb_bench --connect HOST:PORT: the dkb_server the net bench drives.
/// Empty means the net bench serves itself from an in-process server.
inline std::string& ConnectTarget() {
  static std::string target;
  return target;
}

/// Rep count: the full number when measuring, a token count under --smoke.
inline int Reps(int full, int smoke = 2) { return SmokeMode() ? smoke : full; }

/// Sweep grid: all points when measuring, the first `keep` under --smoke.
/// Smoke keeps the *small* end of each sweep, so trim-sensitive fixtures
/// (deep trees, large rule bases) never run at full scale in CI.
inline std::vector<int> Sweep(std::vector<int> points, size_t keep = 2) {
  if (SmokeMode() && points.size() > keep) points.resize(keep);
  return points;
}

/// Scale knob (tree depth, rule-base size): `full` when measuring, the
/// explicitly chosen `smoke` value under --smoke.
inline int SmokeSize(int full, int smoke) {
  return SmokeMode() ? smoke : full;
}

/// Aborts the bench with a diagnostic if `status` is not OK.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// Unwraps a Result<T>, aborting on error.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// The result of the run with the median `key` among `reps` runs of `body`.
/// A breakdown (phase times, shares) read from one run stays consistent
/// with that run's total, which per-field medians would not.
template <typename F, typename K>
auto MedianRun(int reps, F&& body, K&& key) {
  std::vector<decltype(body())> runs;
  runs.reserve(reps);
  for (int i = 0; i < reps; ++i) runs.push_back(body());
  std::sort(runs.begin(), runs.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  return runs[runs.size() / 2];
}

/// Median of `reps` runs of a timed body returning elapsed microseconds.
template <typename F>
int64_t MedianMicros(int reps, F&& body) {
  return MedianRun(reps, body, [](int64_t us) { return us; });
}

}  // namespace dkb::bench

#endif  // DKB_BENCH_BENCH_UTIL_H_
