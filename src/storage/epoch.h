#ifndef DKB_STORAGE_EPOCH_H_
#define DKB_STORAGE_EPOCH_H_

#include <atomic>
#include <cstdint>

namespace dkb {

/// Commit epoch. Every committed write batch advances the testbed epoch by
/// one; rows carry [begin, end) epoch stamps and a reader pinned at epoch E
/// sees exactly the rows with begin <= E < end.
using Epoch = uint64_t;

/// Sentinel read epoch: "latest" visibility — see whatever is currently
/// committed or in flight under the writer lock. This is the visibility of
/// the write path itself and of unversioned (session-local) tables.
inline constexpr Epoch kLatestEpoch = ~0ull;

/// Sentinel end stamp: the row has not been deleted.
inline constexpr Epoch kNeverEpoch = ~0ull;

/// The engine-wide epoch counter. One instance lives in the Testbed; tables
/// created by a versioning-enabled catalog stamp rows from it.
///
/// Thread safety: `Advance` is called by writers serialized on the testbed
/// writer lock; `committed`/`write_epoch` may be read from any thread.
class EpochSource {
 public:
  /// Epoch of the most recently committed write batch. Real epochs start
  /// at 1, so 0 is usable as a "not yet pinned" marker by session code.
  Epoch committed() const { return committed_.load(std::memory_order_acquire); }

  /// Epoch the in-flight write batch stamps its rows with. Becomes the
  /// committed epoch once the testbed's commit advances the counter.
  Epoch write_epoch() const { return committed() + 1; }

  /// Commits the in-flight batch; returns the new committed epoch.
  Epoch Advance() {
    return committed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

 private:
  std::atomic<Epoch> committed_{1};
};

/// Visibility of a [begin, end) stamped row at read epoch `at`.
///
/// Unversioned rows are stamped begin = 0, end = kNeverEpoch (deleted:
/// end = 0), which makes them visible at every pinned epoch and at latest —
/// so unversioned tables behave identically under any read epoch.
inline bool EpochVisible(Epoch begin, Epoch end, Epoch at) {
  if (at == kLatestEpoch) return end == kNeverEpoch;
  return begin <= at && at < end;
}

}  // namespace dkb

#endif  // DKB_STORAGE_EPOCH_H_
