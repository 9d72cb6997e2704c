#ifndef DKB_COMMON_PARALLELISM_H_
#define DKB_COMMON_PARALLELISM_H_

#include <cstddef>

namespace dkb {

/// The engine's parallelism knobs in one place, so a query's effective
/// parallelism can be read from a single struct. DKB_THREADS is read only
/// as the `threads == 0` fallback, and lfp::EvalOptions::parallelism
/// carries the resolved lfp_parallelism into one ExecuteProgram call.
///
/// One policy instance is process-wide (GlobalParallelismPolicy); a query
/// may carry an override in testbed::QueryOptions::policy (set through
/// WithParallelism), which wins for the fields a query-level knob exists
/// for (lfp_parallelism).
struct ParallelismPolicy {
  /// Worker threads in the global pool. 0 = auto: DKB_THREADS when set,
  /// otherwise hardware_concurrency - 1 (the caller participates too).
  /// Read once at pool construction; later changes have no effect.
  int threads = 0;

  /// Rule-graph cliques (SCCs) the LFP run time may evaluate concurrently:
  /// 1 = serial, 0 = size to the pool, N > 1 = at most N at a time.
  int lfp_parallelism = 1;

  /// Minimum table slots before a sequential scan splits into shard × morsel
  /// grid cells on the pool; below it the serial path runs.
  size_t seq_scan_min_rows = 8192;
  /// Minimum build-side rows before a hash join hash-partitions its build.
  size_t hash_build_min_rows = 8192;
  /// Rows per scan morsel (grid-cell granularity within a shard).
  size_t morsel_rows = 4096;

  /// `threads` resolved against DKB_THREADS and the hardware: what the
  /// global pool is (or would be) sized to.
  size_t ResolvedThreads() const;
};

/// Process-wide policy. Mutable so benches and tests can force either the
/// serial or the parallel path; mutate only before spinning up work.
ParallelismPolicy& GlobalParallelismPolicy();

}  // namespace dkb

#endif  // DKB_COMMON_PARALLELISM_H_
