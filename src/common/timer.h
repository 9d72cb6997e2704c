#ifndef DKB_COMMON_TIMER_H_
#define DKB_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace dkb {

/// Monotonic wall-clock stopwatch used for all t_c / t_e / t_u measurements.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Elapsed time since construction, in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  /// Elapsed time since construction, in nanoseconds.
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

/// One costed phase of a stats struct, as its kPhases lists it in the order
/// of the paper's Tables 4, 5 and 8: the name its spans carry, its time in
/// microseconds, and the bucket its trace::ScopedPhase scopes sum into.
template <typename Stats>
struct PhaseField {
  const char* name;
  int64_t Stats::*us;
  int64_t Stats::*ns;
};

/// The entry of Stats::kPhases whose time `us` reports.
template <typename Stats>
constexpr const PhaseField<Stats>& PhaseOf(int64_t Stats::*us) {
  const PhaseField<Stats>* phase = Stats::kPhases;
  while (phase->us != us) ++phase;
  return *phase;
}

/// Rounds each phase's bucket into its microsecond field once, so scopes
/// shorter than a microsecond still count.
template <typename Stats>
void RoundPhases(Stats* stats) {
  for (const PhaseField<Stats>& phase : Stats::kPhases) {
    stats->*phase.us = NanosToMicros(stats->*phase.ns);
  }
}

/// The sum of the phases' microsecond fields.
template <typename Stats>
int64_t SumPhases(const Stats& stats) {
  int64_t total = 0;
  for (const auto& phase : Stats::kPhases) total += stats.*phase.us;
  return total;
}

}  // namespace dkb

#endif  // DKB_COMMON_TIMER_H_
