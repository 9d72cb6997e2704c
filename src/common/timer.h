#ifndef DKB_COMMON_TIMER_H_
#define DKB_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace dkb {

/// Monotonic wall-clock stopwatch used for all t_c / t_e / t_u measurements.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Reset, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Elapsed time since construction or last Reset, in nanoseconds.
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Rounds a nanosecond sum to the nearest microsecond.
inline int64_t NanosToMicros(int64_t nanos) { return (nanos + 500) / 1000; }

/// Accumulates elapsed nanoseconds into a counter across many scopes; used
/// to attribute time to the cost buckets of the paper's Tables 4, 5 and 8
/// (for the LFP: temp-table management, RHS evaluation, termination
/// checking). A bucket sums its scopes in nanoseconds and is rounded to
/// microseconds once (NanosToMicros), so scopes shorter than a microsecond
/// still count.
class ScopedAccumulator {
 public:
  explicit ScopedAccumulator(int64_t* sink_nanos) : sink_(sink_nanos) {}
  ~ScopedAccumulator() { *sink_ += timer_.ElapsedNanos(); }

  ScopedAccumulator(const ScopedAccumulator&) = delete;
  ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;

 private:
  int64_t* sink_;
  WallTimer timer_;
};

}  // namespace dkb

#endif  // DKB_COMMON_TIMER_H_
