#ifndef DKB_TESTBED_QUERY_CACHE_H_
#define DKB_TESTBED_QUERY_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/sync.h"
#include "km/codegen.h"
#include "km/compiler.h"
#include "lfp/instance.h"

namespace dkb::testbed {

/// Precompiled-query store (paper conclusion #3).
///
/// Compilation dominates short D/KB interactions, so frequently-issued
/// queries are worth precompiling. Applications repeat a few query forms
/// with new constants, so the testbed keys each program by its goal's form
/// (km::QueryFormKey) and binds a hit to the new goal's constants
/// (km::BindGoal). Beside each immutable program an entry keeps one idle
/// lfp::ProgramInstance, the program's relations and planned statements:
/// a hit checks it out, runs it with the goal's constants and checks it
/// back in, so a warm hit plans and builds nothing. The price the paper
/// identifies is bookkeeping: each cached program records the predicates
/// it depends on, and rule-base updates invalidate every program whose
/// dependency set intersects the updated predicates.
class QueryCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidated = 0;  // entries dropped by updates
  };

  /// Returns shared ownership of the cached program, or null on a miss.
  /// The returned program stays valid for as long as the caller holds the
  /// pointer, even across a concurrent Insert/InvalidateOn/Clear — lookups
  /// never hand out references into the guarded map.
  std::shared_ptr<const km::CompiledQuery> Lookup(const std::string& key)
      DKB_EXCLUDES(mu_);

  /// Stores a compiled program and returns shared ownership of it.
  /// `dependencies` must cover every predicate whose rules or schema the
  /// program depends on (the compiler's relevant predicate set plus base
  /// predicates).
  std::shared_ptr<const km::CompiledQuery> Insert(
      const std::string& key, km::CompiledQuery compiled,
      std::set<std::string> dependencies) DKB_EXCLUDES(mu_);

  /// Takes the idle instance kept beside `compiled` under `key`, so no
  /// other run can use it until CheckIn; null if the entry holds another
  /// program, has no idle instance, or is gone.
  std::unique_ptr<lfp::ProgramInstance> CheckOut(
      const std::string& key, const km::CompiledQuery* compiled)
      DKB_EXCLUDES(mu_);

  /// Keeps `instance`, idle after a successful run of `compiled`, beside
  /// that program under `key`; drops it if the entry holds another program
  /// (or none) or already keeps an idle instance.
  void CheckIn(const std::string& key, const km::CompiledQuery* compiled,
               std::unique_ptr<lfp::ProgramInstance> instance)
      DKB_EXCLUDES(mu_);

  /// Drops every idle instance, keeping the programs (a session replaced
  /// the Database its instances were planned on).
  void DropInstances() DKB_EXCLUDES(mu_);

  /// Drops every entry depending on any of `updated_preds`.
  void InvalidateOn(const std::set<std::string>& updated_preds)
      DKB_EXCLUDES(mu_);

  /// Drops everything (a session re-pinned past a write that may have
  /// changed any program).
  void Clear() DKB_EXCLUDES(mu_);

  Stats stats() const DKB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  size_t size() const DKB_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    std::shared_ptr<const km::CompiledQuery> compiled;
    std::set<std::string> dependencies;
    std::unique_ptr<lfp::ProgramInstance> idle;  // null while checked out
  };

  /// Guards the map and counters so concurrent lookups (hit bookkeeping
  /// mutates stats_) stay race-free. Entry programs are immutable once
  /// inserted and shared out by shared_ptr, so they need no lock; an
  /// instance leaves the map while it runs.
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ DKB_GUARDED_BY(mu_);
  Stats stats_ DKB_GUARDED_BY(mu_);
};

}  // namespace dkb::testbed

#endif  // DKB_TESTBED_QUERY_CACHE_H_
