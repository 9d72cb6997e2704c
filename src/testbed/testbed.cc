#include "testbed/testbed.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <map>
#include <utility>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "datalog/parser.h"
#include "storage/codec.h"
#include "testbed/session.h"
#include "testbed/sys_views.h"

namespace dkb::testbed {

namespace {

/// Bumps the epoch when the enclosing writer scope exits, success or not:
/// a failed write may still have partially applied, and a conservative
/// refresh in open sessions is always correct.
class EpochBump {
 public:
  explicit EpochBump(std::function<void()> bump) : bump_(std::move(bump)) {}
  ~EpochBump() { bump_(); }

 private:
  std::function<void()> bump_;
};

/// Predicates defined by a program node, comma-joined (plan-summary label;
/// matches the labels the LFP run time puts on NodeStats and trace spans).
std::string NodeLabel(const km::ProgramNode& node) {
  std::string label;
  for (const std::string& p : node.predicates) {
    if (!label.empty()) label += ",";
    label += p;
  }
  return label;
}

/// The compiler options a query's options select.
km::CompilerOptions CompilerOptionsFor(const QueryOptions& options) {
  km::CompilerOptions copts;
  copts.magic_mode = options.adaptive_magic ? km::MagicMode::kAdaptive
                     : options.use_magic   ? km::MagicMode::kOn
                                           : km::MagicMode::kOff;
  copts.magic_variant = options.supplementary
                            ? magic::MagicVariant::kSupplementary
                            : magic::MagicVariant::kGeneralized;
  return copts;
}

/// A QueryResult whose rows are the lines of `text`, one VARCHAR column —
/// what EXPLAIN / EXPLAIN ANALYZE queries return instead of answers.
QueryResult TextResult(const std::string& text) {
  QueryResult result;
  result.schema = Schema({Column{"explain", DataType::kVarchar}});
  for (const std::string& line : StrSplit(text, '\n')) {
    if (!line.empty()) result.rows.push_back(Tuple{Value(line)});
  }
  return result;
}

// ---------------------------------------------------------------------------
// WAL payload encoding (storage/codec.h; formats documented per record kind
// in storage/wal.h).
// ---------------------------------------------------------------------------

std::string StrPayload(const std::string& s) {
  codec::Writer w;
  w.Str(s);
  return w.Take();
}

std::string DefineBasePayload(const std::string& pred,
                              const km::PredicateTypes& types) {
  codec::Writer w;
  w.Str(pred);
  w.U16(static_cast<uint16_t>(types.size()));
  for (DataType t : types) w.U8(static_cast<uint8_t>(t));
  return w.Take();
}

std::string AddFactsPayload(const std::string& pred,
                            const std::vector<Tuple>& rows) {
  codec::Writer w;
  w.Str(pred);
  w.U32(static_cast<uint32_t>(rows.size()));
  for (const Tuple& row : rows) w.Row(row);
  return w.Take();
}

/// SELECT / EXPLAIN statements leave no durable state behind and are not
/// logged; everything else (DDL, DML, pragmas we may grow) is.
bool IsReadOnlySql(const std::string& statement) {
  const size_t i = statement.find_first_not_of(" \t\r\n");
  if (i == std::string::npos) return true;
  const std::string head = AsciiLower(statement.substr(i, 8));
  return StartsWith(head, "select") || StartsWith(head, "explain");
}

Status MalformedWal(const char* kind) {
  return Status::InvalidArgument(std::string("malformed WAL payload for ") +
                                 kind + " record");
}

}  // namespace

Testbed::Testbed(TestbedOptions options)
    : options_(options),
      stored_(std::make_unique<km::StoredDkb>(&db_, options.stored)),
      recorder_(options.flight_recorder_capacity) {
  // Before any table exists: stored tables and the relations each LFP run
  // builds all inherit this count, keeping every source aligned.
  db_.catalog().SetDefaultShards(options.shards);
  // MVCC: every stored table the catalog creates stamps row visibility from
  // the testbed's epoch counter.
  db_.catalog().EnableVersioning(&epochs_);
  if (options.slow_query_threshold_us >= 0) {
    SlowQueryLogOptions slow;
    slow.threshold_us = options.slow_query_threshold_us;
    slow.json = options.slow_query_log_json;
    recorder_.SetSlowQueryLog(slow);
  }
}

Testbed::~Testbed() { StopVacuum(); }

Result<std::unique_ptr<Testbed>> Testbed::Create(TestbedOptions options) {
  std::unique_ptr<Testbed> testbed(new Testbed(options));
  if (!options.wal_dir.empty()) {
    DKB_RETURN_IF_ERROR(testbed->RecoverFromDisk());
  } else {
    DKB_RETURN_IF_ERROR(testbed->stored_->Initialize());
    DKB_RETURN_IF_ERROR(RegisterSystemViews(&testbed->db_, testbed.get()));
    // Initialize ran outside the logged write path; its rows carry the
    // in-flight write epoch. Commit them so pinned sessions see the
    // dictionary relations.
    testbed->epochs_.Advance();
  }
  testbed->StartVacuum();
  return testbed;
}

// ---------------------------------------------------------------------------
// Durability: WAL logging, recovery, checkpoints
// ---------------------------------------------------------------------------

Result<uint64_t> Testbed::LogWal(WalRecordKind kind,
                                 std::string_view payload) {
  if (wal_ == nullptr || wal_replaying_.load(std::memory_order_relaxed)) {
    return uint64_t{0};
  }
  return wal_->Append(kind, payload);
}

Status Testbed::WaitWal(uint64_t lsn) {
  if (lsn == 0 || wal_ == nullptr) return Status::OK();
  return wal_->WaitDurable(lsn);
}

Status Testbed::RecoverFromDisk() {
  if (::mkdir(options_.wal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Unavailable("mkdir " + options_.wal_dir + ": " +
                               std::strerror(errno));
  }
  ckpt_path_ = options_.wal_dir + "/dkb.ckpt";
  wal_path_ = options_.wal_dir + "/dkb.wal";

  uint64_t ckpt_lsn = 0;
  struct stat st;
  if (::stat(ckpt_path_.c_str(), &st) == 0) {
    DKB_ASSIGN_OR_RETURN(CheckpointInfo info,
                         LoadCheckpointInternal(ckpt_path_));
    ckpt_lsn = info.last_lsn;
  } else {
    DKB_RETURN_IF_ERROR(stored_->Initialize());
  }
  DKB_RETURN_IF_ERROR(RegisterSystemViews(&db_, this));
  // Rows materialized outside the logged write path (Initialize, checkpoint
  // load) carry the in-flight write epoch; commit them before replay.
  epochs_.Advance();

  Wal::Options wopts;
  wopts.fsync = options_.wal_fsync;
  wopts.group_commit = options_.wal_group_commit;
  DKB_ASSIGN_OR_RETURN(wal_, Wal::Open(wal_path_, wopts));
  // LSNs are never reused: records appended after recovery must sort after
  // everything the checkpoint already covers.
  wal_->ReserveThrough(ckpt_lsn);

  wal_replaying_.store(true, std::memory_order_release);
  Status replayed = Wal::Replay(
      wal_path_, ckpt_lsn,
      [this](uint64_t /*lsn*/, WalRecordKind kind, std::string_view payload) {
        return ApplyWalRecord(kind, payload);
      });
  wal_replaying_.store(false, std::memory_order_release);
  return replayed;
}

Status Testbed::ApplyWalRecord(WalRecordKind kind, std::string_view payload) {
  // Operation outcomes are deliberately dropped: the log is deterministic,
  // so an op that failed (or half-applied) before the crash fails the same
  // way here and the state still converges.
  codec::Reader r(payload);
  switch (kind) {
    case WalRecordKind::kConsult: {
      std::string text;
      if (!r.Str(&text) || !r.Done()) return MalformedWal("consult");
      (void)Consult(text);
      return Status::OK();
    }
    case WalRecordKind::kAddRule: {
      std::string text;
      if (!r.Str(&text) || !r.Done()) return MalformedWal("add-rule");
      (void)AddRule(text);
      return Status::OK();
    }
    case WalRecordKind::kRetractRule: {
      std::string text;
      if (!r.Str(&text) || !r.Done()) return MalformedWal("retract-rule");
      (void)RetractRule(text);
      return Status::OK();
    }
    case WalRecordKind::kDefineBase: {
      std::string pred;
      uint16_t n = 0;
      if (!r.Str(&pred) || !r.U16(&n)) return MalformedWal("define-base");
      km::PredicateTypes types;
      types.reserve(n);
      for (uint16_t i = 0; i < n; ++i) {
        uint8_t t = 0;
        if (!r.U8(&t)) return MalformedWal("define-base");
        types.push_back(static_cast<DataType>(t));
      }
      if (!r.Done()) return MalformedWal("define-base");
      (void)DefineBase(pred, types);
      return Status::OK();
    }
    case WalRecordKind::kAddFacts: {
      std::string pred;
      uint32_t n = 0;
      if (!r.Str(&pred) || !r.U32(&n)) return MalformedWal("add-facts");
      std::vector<Tuple> rows;
      rows.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Tuple row;
        if (!r.Row(&row)) return MalformedWal("add-facts");
        rows.push_back(std::move(row));
      }
      if (!r.Done()) return MalformedWal("add-facts");
      (void)AddFacts(pred, rows);
      return Status::OK();
    }
    case WalRecordKind::kUpdateStored: {
      if (!r.Done()) return MalformedWal("update-stored");
      (void)UpdateStoredDkb();
      return Status::OK();
    }
    case WalRecordKind::kClearWorkspace: {
      if (!r.Done()) return MalformedWal("clear-workspace");
      ClearWorkspace();
      return Status::OK();
    }
    case WalRecordKind::kSql: {
      std::string statement;
      if (!r.Str(&statement) || !r.Done()) return MalformedWal("sql");
      (void)ExecuteSql(statement);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown WAL record kind " +
                                 std::to_string(static_cast<int>(kind)));
}

Result<CheckpointInfo> Testbed::LoadCheckpointInternal(
    const std::string& path) {
  std::vector<std::string> rules;
  TableFactory factory = [this](const std::string& name, const Schema& schema,
                                size_t shard_count,
                                size_t /*partition_column*/)
      -> Result<ScanSource*> {
    return db_.catalog().CreateTable(name, Schema(schema), shard_count);
  };
  DKB_ASSIGN_OR_RETURN(CheckpointInfo info,
                       ReadCheckpoint(path, factory, &rules));
  DKB_RETURN_IF_ERROR(stored_->RestoreFromDatabase());
  for (const std::string& text : rules) {
    DKB_ASSIGN_OR_RETURN(datalog::Rule rule, datalog::ParseRule(text));
    DKB_RETURN_IF_ERROR(workspace_.AddRule(std::move(rule)));
  }
  return info;
}

Status Testbed::WriteCheckpointTo(const std::string& path) {
  // Name-sorted order keeps images of identical states byte-identical.
  std::vector<std::shared_ptr<ScanSource>> held =
      db_.catalog().SnapshotTables();
  std::sort(held.begin(), held.end(),
            [](const std::shared_ptr<ScanSource>& a,
               const std::shared_ptr<ScanSource>& b) {
              return a->name() < b->name();
            });
  std::vector<const ScanSource*> tables;
  tables.reserve(held.size());
  for (const std::shared_ptr<ScanSource>& t : held) tables.push_back(t.get());
  std::vector<std::string> rules;
  rules.reserve(workspace_.rules().size());
  for (const datalog::Rule& rule : workspace_.rules()) {
    rules.push_back(rule.ToString());
  }
  const uint64_t last_lsn = wal_ == nullptr ? 0 : wal_->last_lsn();
  return WriteCheckpoint(path, last_lsn, epochs_.committed(), tables, rules);
}

Status Testbed::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "checkpointing requires TestbedOptions::wal_dir");
  }
  WriterLock lock(mu_);
  DKB_RETURN_IF_ERROR(WriteCheckpointTo(ckpt_path_));
  // The image covers every applied record; the log prefix is redundant.
  return wal_->Truncate();
}

Status Testbed::LoadCheckpoint(const std::string& path) {
  WriterLock lock(mu_);
  const size_t existing = db_.catalog().num_tables();
  if (existing > 0) {
    return Status::FailedPrecondition(
        "checkpoint load target must be empty; this testbed holds " +
        std::to_string(existing) + " stored tables");
  }
  auto loaded = LoadCheckpointInternal(path);
  if (!loaded.ok()) return loaded.status();
  BumpEpoch();
  return Status::OK();
}

Status Testbed::SaveSession(const std::string& path) {
  // Shared suffices: writers are excluded while the image is cut, and the
  // checkpoint encoder only reads.
  ReaderLock lock(mu_);
  return WriteCheckpointTo(path);
}

Result<std::unique_ptr<Testbed>> Testbed::LoadSession(
    const std::string& path, TestbedOptions options) {
  std::unique_ptr<Testbed> tb(new Testbed(options));
  auto loaded = tb->LoadCheckpointInternal(path);
  if (!loaded.ok()) return loaded.status();
  DKB_RETURN_IF_ERROR(RegisterSystemViews(&tb->db_, tb.get()));
  tb->epochs_.Advance();
  tb->StartVacuum();
  return tb;
}

Testbed::WalInfo Testbed::WalSnapshot() const {
  WalInfo info;
  if (wal_ == nullptr) return info;
  info.enabled = true;
  info.path = wal_path_;
  info.last_lsn = wal_->last_lsn();
  info.appends = wal_->appends();
  info.fsyncs = wal_->fsyncs();
  info.fsync = options_.wal_fsync;
  info.group_commit = options_.wal_group_commit;
  return info;
}

Testbed::CheckpointStat Testbed::CheckpointSnapshot() const {
  CheckpointStat stat;
  if (ckpt_path_.empty()) return stat;
  stat.path = ckpt_path_;
  auto info = PeekCheckpoint(ckpt_path_);
  if (!info.ok()) return stat;
  stat.exists = true;
  stat.last_lsn = info->last_lsn;
  stat.epoch = info->epoch;
  return stat;
}

// ---------------------------------------------------------------------------
// MVCC vacuum
// ---------------------------------------------------------------------------

void Testbed::StartVacuum() {
  if (options_.vacuum_interval_ms <= 0) return;
  vacuum_thread_ = std::thread([this]() { VacuumLoop(); });
}

void Testbed::StopVacuum() {
  if (!vacuum_thread_.joinable()) return;
  {
    MutexLock lock(vacuum_mu_);
    vacuum_stop_ = true;
  }
  vacuum_cv_.NotifyAll();
  vacuum_thread_.join();
}

void Testbed::VacuumLoop() {
  MutexLock lock(vacuum_mu_);
  while (!vacuum_stop_) {
    vacuum_cv_.WaitFor(lock, options_.vacuum_interval_ms);
    if (vacuum_stop_) break;
    VacuumPass();
  }
}

void Testbed::VacuumPass() {
  // Shared lock: Table::Vacuum must be excluded against writers. Session
  // queries keep running — they never touch versions below their pin, and
  // min_pinned is the floor of every open pin.
  ReaderLock lock(mu_);
  Epoch min_pinned = epochs_.committed();
  {
    MutexLock slock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      const Epoch pinned = session->epoch();
      // 0 = registered but not yet pinned: reclaim nothing this pass.
      if (pinned < min_pinned) min_pinned = pinned;
    }
  }
  if (min_pinned == 0) return;
  int64_t reclaimed = 0;
  for (const std::shared_ptr<ScanSource>& table :
       db_.catalog().SnapshotTables()) {
    for (size_t s = 0; s < table->shard_count(); ++s) {
      reclaimed += static_cast<int64_t>(table->shard(s).Vacuum(min_pinned));
    }
  }
  if (reclaimed > 0) {
    vacuumed_rows_.fetch_add(reclaimed, std::memory_order_relaxed);
    static metrics::Counter& counter =
        metrics::GlobalMetrics().counter("dkb.mvcc.reclaimed_rows");
    counter.Add(reclaimed);
  }
}

// ---------------------------------------------------------------------------
// Write operations (logged, epoch-bumped)
// ---------------------------------------------------------------------------

Status Testbed::Consult(const std::string& program_text) {
  DKB_ASSIGN_OR_RETURN(datalog::Program program,
                       datalog::ParseProgram(program_text));
  if (!program.queries.empty()) {
    return Status::InvalidArgument(
        "consulted text contains a query; use Query() instead");
  }
  // Group facts per predicate; every fact of one predicate has its types.
  std::map<std::string, std::vector<Tuple>> facts;
  std::map<std::string, km::PredicateTypes> types;
  for (const datalog::Rule& fact : program.facts) {
    const datalog::Atom& head = fact.head;
    km::PredicateTypes sig;
    Tuple row;
    for (const datalog::Term& t : head.args) {
      sig.push_back(t.value.type());
      row.push_back(t.value);
    }
    auto [it, inserted] = types.emplace(head.predicate, sig);
    if (!inserted && it->second != sig) {
      return Status::TypeError("facts for " + head.predicate +
                               " have inconsistent column types");
    }
    facts[head.predicate].push_back(std::move(row));
  }
  uint64_t lsn = 0;
  Status applied;
  {
    WriterLock lock(mu_);
    // A consult applies whole or not at all, and the WAL logs only what
    // applies: the facts must fit the base predicates they extend.
    for (const auto& [pred, rows] : facts) {
      DKB_RETURN_IF_ERROR(stored_->HasBasePredicate(pred)
                              ? stored_->CheckFacts(pred, rows)
                              : stored_->CheckNewBasePredicate(pred));
    }
    EpochBump bump([this]() { BumpEpoch(); });
    DKB_ASSIGN_OR_RETURN(lsn,
                         LogWal(WalRecordKind::kConsult,
                                StrPayload(program_text)));
    applied = [&]() -> Status {
      cache_.InvalidateOn(HeadsOf(program.rules));
      for (datalog::Rule& rule : program.rules) {
        DKB_RETURN_IF_ERROR(workspace_.AddRule(std::move(rule)));
      }
      // Auto-define new base predicates, then load the facts.
      for (auto& [pred, rows] : facts) {
        if (!stored_->HasBasePredicate(pred)) {
          DKB_RETURN_IF_ERROR(
              stored_->DefineBasePredicate(pred, types[pred]));
        }
        DKB_RETURN_IF_ERROR(stored_->InsertFacts(pred, rows));
      }
      return Status::OK();
    }();
  }
  DKB_RETURN_IF_ERROR(WaitWal(lsn));
  return applied;
}

std::set<std::string> Testbed::HeadsOf(
    const std::vector<datalog::Rule>& rules) {
  std::set<std::string> heads;
  for (const datalog::Rule& rule : rules) heads.insert(rule.head.predicate);
  return heads;
}

Status Testbed::AddRule(const std::string& rule_text) {
  DKB_ASSIGN_OR_RETURN(datalog::Rule rule, datalog::ParseRule(rule_text));
  uint64_t lsn = 0;
  Status applied;
  {
    WriterLock lock(mu_);
    EpochBump bump([this]() { BumpEpoch(); });
    DKB_ASSIGN_OR_RETURN(
        lsn, LogWal(WalRecordKind::kAddRule, StrPayload(rule_text)));
    cache_.InvalidateOn({rule.head.predicate});
    applied = workspace_.AddRule(std::move(rule));
  }
  DKB_RETURN_IF_ERROR(WaitWal(lsn));
  return applied;
}

Status Testbed::RetractRule(const std::string& rule_text) {
  DKB_ASSIGN_OR_RETURN(datalog::Rule rule, datalog::ParseRule(rule_text));
  uint64_t lsn = 0;
  Status applied;
  {
    WriterLock lock(mu_);
    EpochBump bump([this]() { BumpEpoch(); });
    DKB_ASSIGN_OR_RETURN(
        lsn, LogWal(WalRecordKind::kRetractRule, StrPayload(rule_text)));
    if (!workspace_.RemoveRule(rule)) {
      applied =
          Status::NotFound("no such workspace rule: " + rule.ToString());
    } else {
      cache_.InvalidateOn({rule.head.predicate});
      applied = Status::OK();
    }
  }
  DKB_RETURN_IF_ERROR(WaitWal(lsn));
  return applied;
}

Status Testbed::DefineBase(const std::string& pred,
                           const km::PredicateTypes& types) {
  uint64_t lsn = 0;
  Status applied;
  {
    WriterLock lock(mu_);
    EpochBump bump([this]() { BumpEpoch(); });
    DKB_ASSIGN_OR_RETURN(lsn, LogWal(WalRecordKind::kDefineBase,
                                     DefineBasePayload(pred, types)));
    applied = stored_->DefineBasePredicate(pred, types);
  }
  DKB_RETURN_IF_ERROR(WaitWal(lsn));
  return applied;
}

Status Testbed::AddFacts(const std::string& pred,
                         const std::vector<Tuple>& rows) {
  uint64_t lsn = 0;
  Status applied;
  {
    WriterLock lock(mu_);
    // The WAL logs only what applies: every row must fit the predicate.
    DKB_RETURN_IF_ERROR(stored_->CheckFacts(pred, rows));
    EpochBump bump([this]() { BumpEpoch(/*programs_may_change=*/false); });
    DKB_ASSIGN_OR_RETURN(
        lsn, LogWal(WalRecordKind::kAddFacts, AddFactsPayload(pred, rows)));
    applied = stored_->InsertFacts(pred, rows);
  }
  DKB_RETURN_IF_ERROR(WaitWal(lsn));
  return applied;
}

void Testbed::ClearWorkspace() {
  uint64_t lsn = 0;
  {
    WriterLock lock(mu_);
    EpochBump bump([this]() { BumpEpoch(); });
    auto logged = LogWal(WalRecordKind::kClearWorkspace, {});
    if (logged.ok()) lsn = *logged;
    cache_.InvalidateOn(HeadsOf(workspace_.rules()));
    workspace_.Clear();
  }
  (void)WaitWal(lsn);
}

Result<km::UpdateStats> Testbed::UpdateStoredDkb() {
  uint64_t lsn = 0;
  Result<km::UpdateStats> applied = Status::Internal("unreachable");
  {
    WriterLock lock(mu_);
    EpochBump bump([this]() { BumpEpoch(); });
    DKB_ASSIGN_OR_RETURN(lsn, LogWal(WalRecordKind::kUpdateStored, {}));
    cache_.InvalidateOn(HeadsOf(workspace_.rules()));
    km::UpdateProcessor processor(stored_.get());
    applied = processor.Update(workspace_);
  }
  DKB_RETURN_IF_ERROR(WaitWal(lsn));
  return applied;
}

Result<QueryResult> Testbed::ExecuteSql(const std::string& statement) {
  // Exclusive: arbitrary SQL may be DDL/DML, and even read-only statements
  // may scan sys.* virtual tables whose providers expect the writer-side
  // protocol of a running query.
  const bool read_only = IsReadOnlySql(statement);
  uint64_t lsn = 0;
  Result<QueryResult> result = Status::Internal("unreachable");
  {
    WriterLock lock(mu_);
    if (!read_only) {
      EpochBump bump([this]() { BumpEpoch(); });
      DKB_ASSIGN_OR_RETURN(
          lsn, LogWal(WalRecordKind::kSql, StrPayload(statement)));
      result = db_.Execute(statement);
    } else {
      result = db_.Execute(statement);
    }
  }
  DKB_RETURN_IF_ERROR(WaitWal(lsn));
  return result;
}

// ---------------------------------------------------------------------------
// Queries and sessions
// ---------------------------------------------------------------------------

Result<QueryOutcome> Testbed::Query(const std::string& goal_text,
                                    const QueryOptions& options) {
  DKB_ASSIGN_OR_RETURN(datalog::Atom goal, datalog::ParseQuery(goal_text));
  return Query(goal, options);
}

Result<QueryOutcome> Testbed::Query(const datalog::Atom& goal,
                                    const QueryOptions& options) {
  // Exclusive even though a query is logically a read: compilation uses the
  // testbed's own workspace, stored-DKB caches and query cache (evaluation
  // only reads db_). Concurrency comes from sessions, which run QueryImpl
  // against epoch-pinned overlays with no testbed lock at all.
  WriterLock lock(mu_);
  return QueryImpl(&db_, &workspace_, stored_.get(), &cache_, goal, options,
                   &recorder_, /*session_id=*/0);
}

Result<QueryOutcome> Testbed::QueryImpl(Database* db,
                                        km::Workspace* workspace,
                                        km::StoredDkb* stored,
                                        QueryCache* cache,
                                        const datalog::Atom& goal,
                                        const QueryOptions& options,
                                        FlightRecorder* recorder,
                                        int64_t session_id) {
  QueryOutcome outcome;
  QueryReport& report = outcome.report;
  report.query_id = recorder == nullptr ? 0 : recorder->NextQueryId();
  report.session_id = session_id;

  // Tracing: EXPLAIN ANALYZE implies a span tree; collect_trace requests
  // one without changing what the query returns.
  const bool tracing =
      options.collect_trace || options.explain == ExplainMode::kAnalyze;
  trace::TraceSpan* root = nullptr;
  if (tracing) {
    report.trace =
        std::make_shared<trace::TraceContext>("query:" + goal.ToString());
    root = report.trace->root();
  }
  WallTimer total;
  const exec::ExecStatsSnapshot before =
      exec::ExecStatsSnapshot::Take(db->stats());

  // One cached program per goal form: a hit shares the program and binds
  // this goal's constants as its parameters.
  std::string key;
  datalog::Atom query;  // the program's query atom bound to this goal
  if (options.use_cache) {
    key = km::QueryFormKey(goal, CompilerOptionsFor(options));
    outcome.compiled = cache->Lookup(key);
    if (outcome.compiled != nullptr) {
      DKB_ASSIGN_OR_RETURN(query, km::BindGoal(*outcome.compiled, goal));
      report.compile = outcome.compiled->summary;
      report.from_cache = true;
    }
  }
  if (!report.from_cache) {
    trace::ScopedSpan compile_span(root, "compile");
    DKB_ASSIGN_OR_RETURN(
        km::CompiledQuery compiled,
        CompileImpl(workspace, stored, goal, options, &report.compile,
                    compile_span.get(), report.query_id));
    if (options.use_cache) {
      // Dependency set: every predicate the relevant rules mention plus the
      // query predicate itself.
      std::set<std::string> deps = {goal.predicate};
      for (const datalog::Rule& rule : compiled.relevant_rules) {
        deps.insert(rule.head.predicate);
        for (const datalog::Atom& atom : rule.body) {
          deps.insert(atom.predicate);
        }
      }
      outcome.compiled =
          cache->Insert(key, std::move(compiled), std::move(deps));
    } else {
      outcome.compiled =
          std::make_shared<const km::CompiledQuery>(std::move(compiled));
    }
    query = outcome.compiled->program.query;
  }
  const km::QueryProgram& program = outcome.compiled->program;

  // Plan summary: the EXPLAIN side of the report, filled whether or not the
  // query executes.
  report.plan.query = goal.ToString();
  report.plan.strategy = lfp::StrategyName(options.strategy);
  report.plan.magic_applied = report.compile.magic_applied;
  report.plan.parallelism = options.EffectivePolicy().lfp_parallelism;
  report.plan.shards = static_cast<int64_t>(db->catalog().default_shards());
  report.plan.rules_relevant = report.compile.rules_relevant;
  report.plan.rules_pruned = report.compile.rules_pruned;
  for (const km::ProgramNode& node : program.nodes) {
    PlanSummary::Node pn;
    pn.label = NodeLabel(node);
    pn.is_clique = node.is_clique;
    pn.exit_rules = static_cast<int64_t>(node.exit_rules.size());
    pn.recursive_rules = static_cast<int64_t>(node.recursive_rules.size());
    report.plan.nodes.push_back(std::move(pn));
  }
  report.plan.final_select = km::InlineParameters(
      program.final_select, km::QueryParameters(query));

  if (options.explain == ExplainMode::kPlan) {
    report.executed = false;
    report.total_us = total.ElapsedMicros();
    if (root != nullptr) root->End();
    if (recorder != nullptr) {
      recorder->Record(FlightRecorder::MakeEntry(report, report.query_id,
                                                 session_id, /*rows_out=*/0));
    }
    outcome.result = TextResult(report.ExplainText());
    return outcome;
  }

  lfp::EvalOptions eopts;
  eopts.strategy = options.strategy;
  eopts.parallelism = options.EffectivePolicy().lfp_parallelism;
  eopts.query_id = report.query_id;
  {
    trace::ScopedSpan exec_span(root, "execute");
    eopts.span = exec_span.get();
    // A cached program runs on the instance kept beside it, which is
    // checked out for the run and back in after it; any other query's
    // instance lives for its run only.
    std::unique_ptr<lfp::ProgramInstance> instance;
    if (options.use_cache) {
      instance = cache->CheckOut(key, outcome.compiled.get());
    }
    DKB_ASSIGN_OR_RETURN(
        outcome.result,
        lfp::RunProgram(db, program, query, eopts,
                        options.use_cache ? &instance : nullptr,
                        &report.exec));
    if (instance != nullptr) {
      cache->CheckIn(key, outcome.compiled.get(), std::move(instance));
    }
  }
  report.executed = true;
  report.total_us = total.ElapsedMicros();
  report.db_delta = exec::ExecStatsSnapshot::Take(db->stats()) - before;
  if (root != nullptr) root->End();

  metrics::MetricsRegistry& metrics = metrics::GlobalMetrics();
  metrics.counter("dkb.query.count").Add(1);
  if (report.from_cache) metrics.counter("dkb.query.cache_hits").Add(1);
  metrics.counter("dkb.lfp.iterations").Add(report.exec.iterations);
  metrics.histogram("dkb.query.total_us").Observe(report.total_us);

  if (recorder != nullptr) {
    recorder->Record(FlightRecorder::MakeEntry(
        report, report.query_id, session_id,
        static_cast<int64_t>(outcome.result.rows.size())));
  }

  if (options.explain == ExplainMode::kAnalyze) {
    outcome.result = TextResult(report.ExplainText());
  }
  return outcome;
}

Result<km::CompiledQuery> Testbed::CompileOnly(const datalog::Atom& goal,
                                               const QueryOptions& options,
                                               km::CompilationStats* stats) {
  // Exclusive: rule extraction lazily maintains the reachability
  // dictionaries inside the DBMS.
  WriterLock lock(mu_);
  return CompileImpl(&workspace_, stored_.get(), goal, options, stats);
}

Result<km::CompiledQuery> Testbed::CompileImpl(km::Workspace* workspace,
                                               km::StoredDkb* stored,
                                               const datalog::Atom& goal,
                                               const QueryOptions& options,
                                               km::CompilationStats* stats,
                                               trace::TraceSpan* span,
                                               int64_t query_id) {
  km::QueryCompiler compiler(workspace, stored);
  km::CompilerOptions copts = CompilerOptionsFor(options);
  copts.query_id = query_id;
  copts.span = span;
  return compiler.Compile(goal, copts, stats);
}

Result<std::unique_ptr<Session>> Testbed::OpenSession() {
  std::unique_ptr<Session> session(new Session(this));
  // Register before the first Refresh: a registered-but-unpinned session
  // (epoch 0) parks the vacuum floor at zero, so no version it might still
  // pin can be reclaimed during the window.
  session->id_ = RegisterSession(session.get());
  DKB_RETURN_IF_ERROR(session->Refresh());
  return session;
}

int64_t Testbed::RegisterSession(Session* session) {
  int64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(sessions_mu_);
  sessions_[id] = session;
  return id;
}

void Testbed::UnregisterSession(int64_t session_id) {
  MutexLock lock(sessions_mu_);
  sessions_.erase(session_id);
}

std::vector<std::string> Testbed::ListRuleTexts() const {
  ReaderLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(workspace_.rules().size());
  for (const datalog::Rule& rule : workspace_.rules()) {
    out.push_back(rule.ToString());
  }
  return out;
}

void Testbed::SetConnectionsSource(ConnectionsSource source) {
  MutexLock lock(connections_mu_);
  connections_source_ = std::move(source);
}

std::vector<Testbed::ConnectionInfo> Testbed::ConnectionsSnapshot() const {
  MutexLock lock(connections_mu_);
  if (!connections_source_) return {};
  return connections_source_();
}

void Testbed::SetServerStatsSource(ServerStatsSource source) {
  MutexLock lock(connections_mu_);
  server_stats_source_ = std::move(source);
}

std::vector<metrics::MetricSample> Testbed::ServerStatsSnapshot() const {
  MutexLock lock(connections_mu_);
  if (!server_stats_source_) return {};
  return server_stats_source_();
}

std::vector<Testbed::SessionInfo> Testbed::SessionSnapshot() const {
  MutexLock lock(sessions_mu_);
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    SessionInfo info;
    info.session_id = id;
    info.epoch = session->epoch();
    info.queries = session->queries();
    out.push_back(info);
  }
  return out;
}

Result<std::vector<km::analysis::Diagnostic>> Testbed::LintWorkspace() {
  WriterLock lock(mu_);
  // Pull in the stored rules the workspace depends on so mixed
  // workspace/stored programs analyze as the compiler would see them.
  std::set<std::string> undefined = workspace_.UndefinedBodyPredicates();
  DKB_ASSIGN_OR_RETURN(std::vector<datalog::Rule> stored_rules,
                       stored_->ExtractRelevantRules(undefined));
  km::analysis::AnalyzerInput input;
  input.rules = workspace_.rules();
  for (datalog::Rule& rule : stored_rules) {
    if (std::find(input.rules.begin(), input.rules.end(), rule) ==
        input.rules.end()) {
      input.rules.push_back(std::move(rule));
    }
  }
  for (const datalog::Rule& rule : input.rules) {
    for (const datalog::Atom& atom : rule.body) {
      if (!atom.is_builtin() && stored_->HasBasePredicate(atom.predicate)) {
        input.base_predicates.insert(atom.predicate);
      }
    }
  }
  return km::analysis::AnalyzeProgram(input).diagnostics();
}

}  // namespace dkb::testbed
