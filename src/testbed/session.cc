#include "testbed/session.h"

#include "common/sync.h"
#include "datalog/parser.h"

namespace dkb::testbed {

Session::Session(Testbed* testbed)
    : testbed_(testbed), options_(testbed->options_) {}

Session::~Session() { testbed_->UnregisterSession(id_); }

Status Session::Refresh() {
  ReaderLock lock(testbed_->mu_);
  uint64_t current = testbed_->epoch();
  if (db_ != nullptr && current == epoch()) return Status::OK();
  // A brand-new overlay per pin: pinned base handles and prepared
  // statements from the old epoch all die with the old Database, so
  // nothing can leak a stale read epoch into the new one.
  auto db = std::make_unique<Database>();
  // The LFP builds the relations each run owns with this shard count, so
  // they shard identically to the base tables they are joined with.
  db->catalog().SetDefaultShards(options_.shards);
  db->catalog().SetBase(&testbed_->db_.catalog());
  db->catalog().SetReadEpoch(current);
  // O(metadata): rebuilds the dictionary caches by querying the small
  // edbrel/idbrel/rulesource relations through the overlay at the pinned
  // epoch. No fact rows are copied.
  auto stored = std::make_unique<km::StoredDkb>(db.get(), options_.stored);
  DKB_RETURN_IF_ERROR(stored->RestoreFromDatabase());
  workspace_ = testbed_->workspace_;
  // Every program instance was planned on the old Database: its plans read
  // the old epoch and pin the old tables.
  cache_.DropInstances();
  db_ = std::move(db);
  stored_ = std::move(stored);
  // Fact inserts leave every compiled program valid; any other write since
  // the last pin may not.
  if (program_epoch_ != testbed_->program_epoch_) {
    cache_.Clear();
    program_epoch_ = testbed_->program_epoch_;
  }
  epoch_.store(current, std::memory_order_release);
  return Status::OK();
}

Result<QueryOutcome> Session::Query(const std::string& goal_text,
                                    const QueryOptions& options) {
  DKB_ASSIGN_OR_RETURN(datalog::Atom goal, datalog::ParseQuery(goal_text));
  return Query(goal, options);
}

Result<QueryOutcome> Session::Query(const datalog::Atom& goal,
                                    const QueryOptions& options) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  DKB_RETURN_IF_ERROR(Refresh());
  // No testbed lock held here: all stored-table reads go through the pinned
  // epoch, and the LFP's relations belong to the query's run.
  return Testbed::QueryImpl(db_.get(), &workspace_, stored_.get(), &cache_,
                            goal, options, &testbed_->recorder_, id_);
}

}  // namespace dkb::testbed
