#ifndef DKB_TESTBED_TESTBED_H_
#define DKB_TESTBED_TESTBED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"
#include "storage/checkpoint.h"
#include "storage/epoch.h"
#include "storage/wal.h"

#include "km/compiler.h"
#include "km/stored_dkb.h"
#include "km/update.h"
#include "km/workspace.h"
#include "lfp/evaluator.h"
#include "rdbms/database.h"
#include "testbed/flight_recorder.h"
#include "testbed/options.h"
#include "testbed/query_cache.h"
#include "testbed/report.h"

namespace dkb::testbed {

class Session;

/// Everything a D/KB query session produces: the answers, the compiled
/// program, and a unified QueryReport carrying the paper's two headline
/// measures — t_c (compilation) and t_e (execution) — broken into their
/// components, plus counters and (when requested) the span tree.
///
/// A cache hit shares the cached program, which was compiled for the first
/// goal of the form (its original_query) and takes every goal's constants
/// as parameters; report.plan shows this goal's. Move-only: the report may
/// own a TraceContext.
struct QueryOutcome {
  QueryResult result;
  std::shared_ptr<const km::CompiledQuery> compiled;
  QueryReport report;
};

/// What a committed Mutation returns besides its status: the Stored-DKB
/// update's statistics for kUpdateStored, the statement's result for kSql.
struct CommitOutcome {
  km::UpdateStats update;
  QueryResult result;
};

/// The D/KBMS testbed facade (paper Fig 5): a Workspace DKB, a Stored DKB
/// living inside the relational DBMS, the query compiler, and the run time
/// library, wired together behind the session operations a user performs.
class Testbed {
 public:
  /// Builds a testbed with freshly initialized Stored-DKB relations. With
  /// TestbedOptions::wal_dir set this is also the recovery entry point:
  /// the newest checkpoint in the directory is loaded and the WAL tail
  /// (records past the checkpoint) is replayed before the testbed opens.
  static Result<std::unique_ptr<Testbed>> Create(
      TestbedOptions options = TestbedOptions{});

  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// The one write path: the typed writes below, the server's mutation
  /// requests and WAL replay all commit through it. Under the writer lock
  /// it checks everything that can reject `mutation`, writing nothing; then
  /// it logs the record, applies it, advances the epoch and drops the cached
  /// programs it may change. It waits for the record to be durable after
  /// the lock drops, so concurrent writers share one group-commit fsync. A
  /// rejected mutation changes nothing and logs nothing. SQL is checked
  /// only for parsing, since a multi-row statement can fail part way; a
  /// SELECT or EXPLAIN is neither logged nor advances the epoch.
  Result<CommitOutcome> Commit(const Mutation& mutation) DKB_EXCLUDES(mu_);

  /// Loads a Datalog program: proper rules go to the Workspace DKB, ground
  /// facts to the extensional database (base predicates are auto-defined
  /// from the types of the first fact's constants). Queries in the text are
  /// rejected — use Query(). The program applies whole or not at all: facts
  /// of one predicate with two row types, or facts that do not fit the
  /// base predicate they extend, reject it.
  Status Consult(const std::string& program_text) DKB_EXCLUDES(mu_);

  /// Adds a single rule ("anc(X,Y) :- par(X,Y).") to the workspace.
  Status AddRule(const std::string& rule_text) DKB_EXCLUDES(mu_);

  /// Removes a workspace rule by structural equality (the paper's workspace
  /// editing loop). Rules already committed to the Stored DKB are
  /// unaffected. Returns NotFound if no such workspace rule exists.
  Status RetractRule(const std::string& rule_text) DKB_EXCLUDES(mu_);

  /// Declares a base predicate with explicit column types: at least one,
  /// each INTEGER or VARCHAR.
  Status DefineBase(const std::string& pred,
                    const km::PredicateTypes& types) DKB_EXCLUDES(mu_);

  /// Bulk-loads facts for a base predicate. The rows apply whole or not at
  /// all: an undefined predicate, a row of another arity or a value of
  /// another type (NULL fits any column) is rejected before the WAL record
  /// is written.
  Status AddFacts(const std::string& pred, std::vector<Tuple> rows)
      DKB_EXCLUDES(mu_);

  /// Compiles and executes a D/KB query ("?- anc(john, X)." or just
  /// "anc(john, X)").
  Result<QueryOutcome> Query(const std::string& goal_text,
                             const QueryOptions& options = QueryOptions{})
      DKB_EXCLUDES(mu_);
  Result<QueryOutcome> Query(const datalog::Atom& goal,
                             const QueryOptions& options = QueryOptions{})
      DKB_EXCLUDES(mu_);

  /// Compiles without executing (used by the compilation benches).
  Result<km::CompiledQuery> CompileOnly(const datalog::Atom& goal,
                                        const QueryOptions& options,
                                        km::CompilationStats* stats)
      DKB_EXCLUDES(mu_);

  /// Runs the goal-independent static-analysis passes over the workspace
  /// rules merged with the stored rules they depend on; base predicates are
  /// resolved against the Stored D/KB. Nothing is modified — this is the
  /// interactive `dkb_lint` surface of the session.
  Result<std::vector<km::analysis::Diagnostic>> LintWorkspace()
      DKB_EXCLUDES(mu_);

  /// Commits the Workspace rules into the Stored DKB (paper §4.3).
  /// Rejected, storing nothing, when a rule's head is a base predicate, a
  /// body predicate is unknown or the rules do not type-check.
  Result<km::UpdateStats> UpdateStoredDkb() DKB_EXCLUDES(mu_);

  /// Runs one raw SQL statement under the writer lock. This is the safe
  /// SQL entry point for concurrent callers (the network server, tools):
  /// the bare db() accessor bypasses the reader-writer protocol and is for
  /// single-threaded use only.
  Result<QueryResult> ExecuteSql(const std::string& statement)
      DKB_EXCLUDES(mu_);

  /// The current workspace rules rendered back to source form, under the
  /// reader lock (safe against concurrent AddRule/RetractRule).
  std::vector<std::string> ListRuleTexts() const DKB_EXCLUDES(mu_);

  /// Persists the whole session — the DBMS state (facts, stored rules,
  /// dictionaries, compiled rule storage) plus the workspace rules — to a
  /// columnar checkpoint file (storage/checkpoint.h).
  Status SaveSession(const std::string& path) DKB_EXCLUDES(mu_);

  /// Restores a session saved with SaveSession. `options` must describe
  /// the same storage configuration the snapshot was created with.
  static Result<std::unique_ptr<Testbed>> LoadSession(
      const std::string& path, TestbedOptions options = TestbedOptions{});

  /// Writes a checkpoint to wal_dir/dkb.ckpt and truncates the WAL: the
  /// durable image "moves forward" so recovery replays only records after
  /// it. FailedPrecondition without a wal_dir.
  Status Checkpoint() DKB_EXCLUDES(mu_);

  /// Loads a checkpoint file into this testbed. The target must be empty —
  /// a testbed that has initialized or recovered stored relations answers
  /// FailedPrecondition (loads never merge into live state).
  Status LoadCheckpoint(const std::string& path) DKB_EXCLUDES(mu_);

  /// Opens a concurrent read-only query session pinned to the current
  /// commit epoch (see testbed/session.h). O(metadata), not O(data): the
  /// session overlays the shared catalog instead of cloning the database.
  /// Any number of sessions may Query() in parallel; the testbed's mutating
  /// operations take the writer side of the lock and advance the epoch,
  /// making open sessions re-pin on their next query.
  Result<std::unique_ptr<Session>> OpenSession() DKB_EXCLUDES(mu_);

  /// Monotonic state version: advanced by every committed write. Rows are
  /// stamped with [begin, end) epochs; a session pinned at epoch E sees
  /// exactly the rows with begin <= E < end (storage/epoch.h).
  uint64_t epoch() const { return epochs_.committed(); }

  Status ClearWorkspace() DKB_EXCLUDES(mu_);

  /// One row of sys.sessions: an open Session's id, the epoch its snapshot
  /// was cloned at, and how many queries it has run.
  struct SessionInfo {
    int64_t session_id = 0;
    uint64_t epoch = 0;
    int64_t queries = 0;
  };
  std::vector<SessionInfo> SessionSnapshot() const
      DKB_EXCLUDES(sessions_mu_);

  /// One row of sys.connections: a live network connection as reported by
  /// the server's connection registry (testbed/sys_views.cc renders these).
  /// Defined here rather than in src/net/ so the view can exist — empty —
  /// when no server is attached, without testbed depending on net.
  struct ConnectionInfo {
    int64_t connection_id = 0;
    std::string peer;        // "addr:port" of the remote end
    int64_t session_id = 0;  // the COW Session serving this connection
    int64_t frames_received = 0;
    int64_t bytes_in = 0;
    int64_t bytes_out = 0;
    int64_t queries = 0;
    int64_t requests = 0;  // request frames dispatched (>= queries)
    int64_t errors = 0;    // requests answered with an Error frame
    int64_t age_us = 0;    // microseconds since the connection was accepted
  };
  using ConnectionsSource = std::function<std::vector<ConnectionInfo>()>;

  /// Installs (or, with nullptr, removes) the provider behind
  /// sys.connections. The server installs its registry on Start and removes
  /// it on Stop; with none installed the view is empty.
  void SetConnectionsSource(ConnectionsSource source)
      DKB_EXCLUDES(connections_mu_);

  /// Snapshot of the installed connections source (empty without one).
  std::vector<ConnectionInfo> ConnectionsSnapshot() const
      DKB_EXCLUDES(connections_mu_);

  /// Provider behind sys.server: the attached server's request-lifecycle
  /// statistics in the sys.metrics row shape (name/kind/value/sum/max/
  /// p50/p99). Same install/remove discipline and locking constraints as
  /// the connections source: the callback must never re-enter Testbed
  /// entry points that take mu_.
  using ServerStatsSource =
      std::function<std::vector<metrics::MetricSample>()>;
  void SetServerStatsSource(ServerStatsSource source)
      DKB_EXCLUDES(connections_mu_);

  /// Snapshot of the installed server-stats source (empty without one).
  std::vector<metrics::MetricSample> ServerStatsSnapshot() const
      DKB_EXCLUDES(connections_mu_);

  /// One row of sys.wal: live write-ahead-log state. `enabled` is false
  /// (and the rest zero) without a wal_dir.
  struct WalInfo {
    bool enabled = false;
    std::string path;
    uint64_t last_lsn = 0;
    int64_t appends = 0;
    int64_t fsyncs = 0;
    bool fsync = true;
    bool group_commit = true;
  };
  WalInfo WalSnapshot() const;

  /// One row of sys.checkpoints: the durable checkpoint in wal_dir (peeked
  /// from disk; `exists` false when none was written yet or no wal_dir).
  struct CheckpointStat {
    bool exists = false;
    std::string path;
    uint64_t last_lsn = 0;
    uint64_t epoch = 0;
  };
  CheckpointStat CheckpointSnapshot() const;

  /// Rows reclaimed by the MVCC vacuum thread since startup.
  int64_t vacuumed_rows() const {
    return vacuumed_rows_.load(std::memory_order_relaxed);
  }

  Database& db() { return db_; }
  km::Workspace& workspace() { return workspace_; }
  km::StoredDkb& stored() { return *stored_; }
  const QueryCache& query_cache() const { return cache_; }
  /// The always-on query flight recorder behind sys.query_log and the
  /// slow-query log.
  FlightRecorder& recorder() { return recorder_; }
  const TestbedOptions& options() const { return options_; }

 private:
  friend class Session;

  explicit Testbed(TestbedOptions options);

  /// A mutation's parsed form and what its check decided, carried from the
  /// check to the apply.
  struct Staged;

  /// Commit's three steps. Parse validates the fields and parses the text
  /// kinds, outside the lock; Check makes every check that reads testbed
  /// state; Apply writes. Neither of the first two writes anything.
  Status ParseMutation(const Mutation& m, Staged* staged);
  Status CheckMutation(const Mutation& m, Staged* staged) DKB_REQUIRES(mu_);
  Result<CommitOutcome> ApplyMutation(const Mutation& m, Staged* staged)
      DKB_REQUIRES(mu_);

  /// The compile-then-evaluate pipeline shared by Testbed::Query (against
  /// the testbed's own state, under the writer lock) and Session::Query
  /// (against the session's private snapshot, with no lock at all).
  static Result<QueryOutcome> QueryImpl(Database* db,
                                        km::Workspace* workspace,
                                        km::StoredDkb* stored,
                                        QueryCache* cache,
                                        const datalog::Atom& goal,
                                        const QueryOptions& options,
                                        FlightRecorder* recorder,
                                        int64_t session_id);
  static Result<km::CompiledQuery> CompileImpl(km::Workspace* workspace,
                                               km::StoredDkb* stored,
                                               const datalog::Atom& goal,
                                               const QueryOptions& options,
                                               km::CompilationStats* stats,
                                               trace::TraceSpan* span = nullptr,
                                               int64_t query_id = 0);

  /// Commits the in-flight write batch: advance under the writer lock so
  /// session pins (shared lock) always pair an epoch with the state it
  /// describes. Rows stamped during the batch carried write_epoch() ==
  /// committed()+1 and become visible exactly here. Every write but a fact
  /// insert may change a compiled program and also moves program_epoch_.
  void BumpEpoch(bool programs_may_change = true) {
    epochs_.Advance();
    if (programs_may_change) program_epoch_ = epochs_.committed();
  }

  /// Appends the redo record of `m` under the writer lock; returns its LSN,
  /// or 0 when no WAL is configured or the record is itself being replayed.
  /// Commit releases the lock, then WaitWal(lsn) — so the next writer can
  /// append into the same group-commit fsync batch while this one waits.
  Result<uint64_t> LogWal(const Mutation& m) DKB_REQUIRES(mu_);
  Status WaitWal(uint64_t lsn) DKB_EXCLUDES(mu_);

  /// Create() with wal_dir: load checkpoint (or initialize fresh), open the
  /// WAL, replay the tail.
  Status RecoverFromDisk();

  /// Reads `path` into this (empty) testbed: tables through the catalog,
  /// stored-DKB state, workspace rules.
  Result<CheckpointInfo> LoadCheckpointInternal(const std::string& path);

  /// Writes the current state to `path`. Caller holds mu_ (shared is
  /// enough: writers are excluded while the image is cut).
  Status WriteCheckpointTo(const std::string& path);

  void StartVacuum();
  void StopVacuum();
  void VacuumLoop();
  void VacuumPass() DKB_EXCLUDES(mu_, sessions_mu_);

  /// Session registry behind sys.sessions. Sessions register on open and
  /// unregister in their destructor; the registry mutex is independent of
  /// mu_ so sys-view providers never contend with running queries.
  int64_t RegisterSession(Session* session) DKB_EXCLUDES(sessions_mu_);
  void UnregisterSession(int64_t session_id) DKB_EXCLUDES(sessions_mu_);

  TestbedOptions options_;
  /// Reader-writer protocol: sessions clone under shared locks; every
  /// mutating testbed operation (including Query, which creates and drops
  /// LFP temp tables in db_) holds the lock exclusively. The protected
  /// state (db_, workspace_, stored_, cache_, recorder_) is not annotated
  /// GUARDED_BY because the public accessors below deliberately hand out
  /// references for single-threaded use — the protocol, documented in
  /// DESIGN.md "Concurrency invariants", is what keeps concurrent sessions
  /// safe, and the annotated Session/Testbed entry points enforce it.
  ///
  /// Lock order: mu_ before sessions_mu_ (Query, holding mu_, may resolve
  /// sys.sessions, whose provider takes sessions_mu_). The converse never
  /// happens: registry operations touch nothing under mu_.
  mutable SharedMutex mu_ DKB_ACQUIRED_BEFORE(sessions_mu_);
  /// MVCC epoch counter; stored tables stamp row visibility from it (the
  /// catalog attaches it to every non-temporary table it creates).
  EpochSource epochs_;
  /// The commit epoch of the last write that may have changed a compiled
  /// program. Sessions drop their precompiled programs when it moves.
  /// Written under mu_ exclusive, read under mu_ shared.
  uint64_t program_epoch_ = 0;
  Database db_;
  km::Workspace workspace_;
  std::unique_ptr<km::StoredDkb> stored_;
  QueryCache cache_;
  FlightRecorder recorder_;
  /// Guards the connections-source hook only. A sys.connections scan may
  /// run under mu_ (queries resolve virtual tables), so the order is mu_
  /// before connections_mu_; the source callback must therefore never call
  /// back into Testbed entry points that take mu_.
  mutable Mutex connections_mu_;
  ConnectionsSource connections_source_ DKB_GUARDED_BY(connections_mu_);
  ServerStatsSource server_stats_source_ DKB_GUARDED_BY(connections_mu_);

  /// Guards the open-session registry only; independent of mu_ so
  /// sys.sessions never contends with running queries.
  mutable Mutex sessions_mu_;
  std::atomic<int64_t> next_session_id_{1};
  std::map<int64_t, Session*> sessions_ DKB_GUARDED_BY(sessions_mu_);

  /// Durability (empty/null without TestbedOptions::wal_dir). wal_ is set
  /// once during Create and never reassigned, so lock-free reads after
  /// construction are safe; Append calls are serialized by mu_.
  std::string wal_path_;
  std::string ckpt_path_;
  std::unique_ptr<Wal> wal_;
  /// True while Create replays the log: replayed records commit through
  /// Commit and must not re-log themselves.
  std::atomic<bool> wal_replaying_{false};

  /// Background MVCC reclaimer: frees row versions no pinned session can
  /// see. Takes mu_ shared (Table::Vacuum must exclude writers) and
  /// sessions_mu_ (pin scan) but never blocks session queries, which run
  /// lock-free.
  std::thread vacuum_thread_;
  mutable Mutex vacuum_mu_;
  CondVar vacuum_cv_;
  bool vacuum_stop_ DKB_GUARDED_BY(vacuum_mu_) = false;
  std::atomic<int64_t> vacuumed_rows_{0};
};

}  // namespace dkb::testbed

#endif  // DKB_TESTBED_TESTBED_H_
