#ifndef DKB_TESTBED_SESSION_H_
#define DKB_TESTBED_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "km/stored_dkb.h"
#include "km/workspace.h"
#include "rdbms/database.h"
#include "testbed/options.h"
#include "testbed/query_cache.h"
#include "testbed/testbed.h"

namespace dkb::testbed {

/// A concurrent read-only query session over a Testbed.
///
/// The paper's testbed is single-user; Session adds the multi-user story
/// with epoch-based MVCC: any number of sessions may Query() concurrently
/// with each other *and* with the testbed's mutating operations (Consult,
/// AddFacts, UpdateStoredDkb, ...), because a session never reads live
/// state — it reads the shared stored tables at a pinned commit epoch.
///
/// Opening (and refreshing) a session is O(metadata), not O(database): the
/// session builds an overlay Database whose catalog falls through to the
/// testbed's for stored tables, pins the current commit epoch, and rebuilds
/// only the small stored-DKB dictionary caches plus a copy of the workspace
/// rules. Row versions below the pin are protected from the vacuum
/// reclaimer by the session registry. A session only reads: the LFP's IDB
/// relations and temporaries belong to each query's run (lfp::RunRelations),
/// not to any catalog, which is what makes concurrent evaluation possible.
///
/// The pin is taken lazily: every Query() first compares the session's
/// epoch against the testbed's (which each committed write advances) and
/// re-pins only when stale. Between writes, repeated queries pay nothing.
///
/// A Session must not outlive the Testbed that opened it. Sessions are not
/// themselves thread-safe; use one Session per thread.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  /// Compiles and executes a query against this session's pinned epoch.
  /// Re-pins first if the testbed has changed since the last call. Safe to
  /// call while other sessions query and the testbed writes concurrently.
  Result<QueryOutcome> Query(const std::string& goal_text,
                             const QueryOptions& options = QueryOptions{});
  Result<QueryOutcome> Query(const datalog::Atom& goal,
                             const QueryOptions& options = QueryOptions{});

  /// Registry id of this session; sys.sessions and sys.query_log report
  /// queries under it (the testbed's own queries use session id 0).
  int64_t id() const { return id_; }

  /// The commit epoch this session reads at. Atomic so sys.sessions and the
  /// vacuum reclaimer may observe it from other threads mid-query; 0 means
  /// "registered, not yet pinned", which parks the vacuum floor.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Queries this session has run (successful or not).
  int64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }

  /// This session's private precompiled-program cache. A re-pin drops its
  /// program instances (they were planned on the old pinned Database), and
  /// clears it when any write other than a fact insert happened since the
  /// last pin.
  const QueryCache& query_cache() const { return cache_; }

 private:
  friend class Testbed;
  explicit Session(Testbed* testbed);

  /// Re-pins to the current commit epoch if it moved past ours: builds a
  /// fresh overlay Database (so statements and pinned base handles from the
  /// old epoch are dropped wholesale), restores the
  /// stored-DKB dictionary caches through it, and copies the workspace.
  /// Takes the testbed's lock in shared mode for the duration of the
  /// metadata copy only.
  Status Refresh();

  Testbed* testbed_;
  TestbedOptions options_;
  int64_t id_ = 0;
  std::atomic<uint64_t> epoch_{0};  // 0 = never pinned; real epochs start at 1
  std::atomic<int64_t> queries_{0};
  std::unique_ptr<Database> db_;
  km::Workspace workspace_;
  std::unique_ptr<km::StoredDkb> stored_;
  QueryCache cache_;
  /// Testbed::program_epoch_ as of the last cache check.
  uint64_t program_epoch_ = 0;
};

}  // namespace dkb::testbed

#endif  // DKB_TESTBED_SESSION_H_
