#include "testbed/testbed.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <utility>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "datalog/parser.h"
#include "testbed/session.h"
#include "testbed/sys_views.h"

namespace dkb::testbed {

namespace {

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

Result<uint64_t> Testbed::LogWal(const Mutation& m) {
  if (wal_ == nullptr || wal_replaying_.load(std::memory_order_relaxed)) {
    return uint64_t{0};
  }
  return wal_->Append(m.kind, EncodeMutation(m));
}

Status Testbed::WaitWal(uint64_t lsn) {
  if (lsn == 0 || wal_ == nullptr) return Status::OK();
  return wal_->WaitDurable(lsn);
}

Status Testbed::RecoverFromDisk() {
  if (::mkdir(options_.wal_dir.c_str(), 0755) == 0) {
    // A new directory's own name must be durable before the log and the
    // checkpoint inside it are.
    if (options_.wal_fsync) {
      DKB_RETURN_IF_ERROR(SyncParentDirectory(options_.wal_dir));
    }
  } else if (errno != EEXIST) {
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
        DKB_ASSIGN_OR_RETURN(Mutation m, DecodeMutation(kind, payload));
        // The log is deterministic, so the outcome is dropped: a record
        // whose check fails now (logged by a build that logged before
        // checking) applied nothing then either, and a SQL statement fails
        // at the same row it failed at before the crash.
        (void)Commit(m);
        return Status::OK();
      });
  wal_replaying_.store(false, std::memory_order_release);
  return replayed;
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
// Writes: one commit path (check, log, apply)
// ---------------------------------------------------------------------------

struct Testbed::Staged {
  datalog::Program program;                         // kConsult
  std::map<std::string, std::vector<Tuple>> facts;  // kConsult, per predicate
  std::map<std::string, km::PredicateTypes> fact_types;
  datalog::Rule rule;         // kAddRule, kRetractRule
  bool read_only = false;     // kSql: a SELECT or EXPLAIN, never logged
  km::UpdatePlan plan;        // kUpdateStored
};

Result<CommitOutcome> Testbed::Commit(const Mutation& mutation) {
  Staged staged;
  DKB_RETURN_IF_ERROR(ParseMutation(mutation, &staged));
  uint64_t lsn = 0;
  Result<CommitOutcome> applied = Status::Internal("unreachable");
  {
    WriterLock lock(mu_);
    DKB_RETURN_IF_ERROR(CheckMutation(mutation, &staged));
    if (!staged.read_only) {
      DKB_ASSIGN_OR_RETURN(lsn, LogWal(mutation));
    }
    applied = ApplyMutation(mutation, &staged);
    // Fact loads leave every compiled program valid.
    if (!staged.read_only) {
      BumpEpoch(mutation.kind != WalRecordKind::kAddFacts);
    }
  }
  DKB_RETURN_IF_ERROR(WaitWal(lsn));
  return applied;
}

Status Testbed::ParseMutation(const Mutation& m, Staged* staged) {
  DKB_RETURN_IF_ERROR(m.Validate());
  switch (m.kind) {
    case WalRecordKind::kConsult: {
      DKB_ASSIGN_OR_RETURN(staged->program, datalog::ParseProgram(m.text));
      if (!staged->program.queries.empty()) {
        return Status::InvalidArgument(
            "consulted text contains a query; use Query() instead");
      }
      // Group facts per predicate; every fact of one predicate has its
      // types.
      for (const datalog::Rule& fact : staged->program.facts) {
        const datalog::Atom& head = fact.head;
        km::PredicateTypes sig;
        Tuple row;
        for (const datalog::Term& t : head.args) {
          sig.push_back(t.value.type());
          row.push_back(t.value);
        }
        auto [it, inserted] = staged->fact_types.emplace(head.predicate, sig);
        if (!inserted && it->second != sig) {
          return Status::TypeError("facts for " + head.predicate +
                                   " have inconsistent column types");
        }
        staged->facts[head.predicate].push_back(std::move(row));
      }
      return Status::OK();
    }
    case WalRecordKind::kAddRule:
    case WalRecordKind::kRetractRule: {
      DKB_ASSIGN_OR_RETURN(staged->rule, datalog::ParseRule(m.text));
      return m.kind == WalRecordKind::kAddRule
                 ? km::Workspace::CheckRule(staged->rule)
                 : Status::OK();
    }
    case WalRecordKind::kSql: {
      // The parsed statement's kind decides whether it is logged.
      DKB_ASSIGN_OR_RETURN(PreparedStatement statement, db_.Prepare(m.text));
      if (statement.param_count() > 0) {
        return Status::InvalidArgument(
            "a statement run on its own takes no ? parameters: " + m.text);
      }
      staged->read_only = statement.read_only();
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Status Testbed::CheckMutation(const Mutation& m, Staged* staged) {
  switch (m.kind) {
    case WalRecordKind::kConsult:
      // The facts must fit the base predicates they extend, or be able to
      // define new ones.
      for (const auto& [pred, rows] : staged->facts) {
        DKB_RETURN_IF_ERROR(stored_->HasBasePredicate(pred)
                                ? stored_->CheckFacts(pred, rows)
                                : stored_->CheckNewBasePredicate(pred));
      }
      return Status::OK();
    case WalRecordKind::kRetractRule:
      if (!workspace_.Contains(staged->rule)) {
        return Status::NotFound("no such workspace rule: " +
                                staged->rule.ToString());
      }
      return Status::OK();
    case WalRecordKind::kDefineBase:
      return stored_->CheckNewBasePredicate(m.text);
    case WalRecordKind::kAddFacts:
      return stored_->CheckFacts(m.text, m.rows);
    case WalRecordKind::kUpdateStored: {
      km::UpdateProcessor processor(stored_.get());
      DKB_ASSIGN_OR_RETURN(staged->plan, processor.Check(workspace_));
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Result<CommitOutcome> Testbed::ApplyMutation(const Mutation& m,
                                             Staged* staged) {
  CommitOutcome outcome;
  switch (m.kind) {
    case WalRecordKind::kConsult:
      cache_.InvalidateOn(datalog::HeadPredicates(staged->program.rules));
      for (datalog::Rule& rule : staged->program.rules) {
        DKB_RETURN_IF_ERROR(workspace_.AddRule(std::move(rule)));
      }
      // Auto-define new base predicates, then load the facts.
      for (const auto& [pred, rows] : staged->facts) {
        if (!stored_->HasBasePredicate(pred)) {
          DKB_RETURN_IF_ERROR(
              stored_->DefineBasePredicate(pred, staged->fact_types[pred]));
        }
        DKB_RETURN_IF_ERROR(stored_->InsertFacts(pred, rows));
      }
      break;
    case WalRecordKind::kAddRule:
      cache_.InvalidateOn({staged->rule.head.predicate});
      DKB_RETURN_IF_ERROR(workspace_.AddRule(std::move(staged->rule)));
      break;
    case WalRecordKind::kRetractRule:
      cache_.InvalidateOn({staged->rule.head.predicate});
      workspace_.RemoveRule(staged->rule);
      break;
    case WalRecordKind::kDefineBase:
      DKB_RETURN_IF_ERROR(stored_->DefineBasePredicate(m.text, m.types));
      break;
    case WalRecordKind::kAddFacts:
      DKB_RETURN_IF_ERROR(stored_->InsertFacts(m.text, m.rows));
      break;
    case WalRecordKind::kUpdateStored: {
      cache_.InvalidateOn(workspace_.HeadPredicates());
      km::UpdateProcessor processor(stored_.get());
      DKB_ASSIGN_OR_RETURN(outcome.update,
                           processor.Apply(workspace_, staged->plan));
      break;
    }
    case WalRecordKind::kClearWorkspace:
      cache_.InvalidateOn(workspace_.HeadPredicates());
      workspace_.Clear();
      break;
    case WalRecordKind::kSql:
      DKB_ASSIGN_OR_RETURN(outcome.result, db_.Execute(m.text));
      break;
  }
  return outcome;
}

Status Testbed::Consult(const std::string& program_text) {
  return Commit({WalRecordKind::kConsult, program_text}).status();
}

Status Testbed::AddRule(const std::string& rule_text) {
  return Commit({WalRecordKind::kAddRule, rule_text}).status();
}

Status Testbed::RetractRule(const std::string& rule_text) {
  return Commit({WalRecordKind::kRetractRule, rule_text}).status();
}

Status Testbed::DefineBase(const std::string& pred,
                           const km::PredicateTypes& types) {
  return Commit({WalRecordKind::kDefineBase, pred, types}).status();
}

Status Testbed::AddFacts(const std::string& pred, std::vector<Tuple> rows) {
  return Commit({WalRecordKind::kAddFacts, pred, {}, std::move(rows)})
      .status();
}

Status Testbed::ClearWorkspace() {
  return Commit({WalRecordKind::kClearWorkspace}).status();
}

Result<km::UpdateStats> Testbed::UpdateStoredDkb() {
  DKB_ASSIGN_OR_RETURN(CommitOutcome outcome,
                       Commit({WalRecordKind::kUpdateStored}));
  return outcome.update;
}

Result<QueryResult> Testbed::ExecuteSql(const std::string& statement) {
  // Exclusive even for a SELECT: it may scan sys.* virtual tables whose
  // providers expect the writer-side protocol of a running query.
  DKB_ASSIGN_OR_RETURN(CommitOutcome outcome,
                       Commit({WalRecordKind::kSql, statement}));
  return std::move(outcome.result);
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
    trace::ScopedPhase compile_span(root, "compile");
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
    pn.label = node.Label();
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
    trace::ScopedPhase exec_span(root, "execute");
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
