#include "testbed/sys_views.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/interner.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "testbed/flight_recorder.h"
#include "testbed/testbed.h"

namespace dkb::testbed {

namespace {

Value IntVal(int64_t v) { return Value(v); }
Value IntOrNull(const std::optional<int64_t>& v) {
  return v.has_value() ? Value(*v) : Value::Null();
}
Value BoolVal(bool v) { return Value(static_cast<int64_t>(v ? 1 : 0)); }

/// sys.query_log's phase columns: Table 4's phases, then Table 5's.
constexpr size_t kPhaseColumns = std::size(km::CompilationStats::kPhases) +
                                 std::size(lfp::ExecutionStats::kPhases);

Schema QueryLogSchema() {
  std::vector<Column> columns = {
      {"query_id", DataType::kInteger},
      {"session_id", DataType::kInteger},
      {"ts_us", DataType::kInteger},
      {"query", DataType::kVarchar},
      {"strategy", DataType::kVarchar},
      {"magic", DataType::kInteger},
      {"from_cache", DataType::kInteger},
      {"executed", DataType::kInteger},
      {"rows_out", DataType::kInteger},
      {"iterations", DataType::kInteger},
      {"total_us", DataType::kInteger},
  };
  QueryReport executed;  // its Phases() are the entries' phases, in order
  executed.executed = true;
  for (const PhaseTiming& phase : executed.Phases()) {
    columns.push_back({phase.name + "_us", DataType::kInteger});
  }
  columns.insert(columns.end(), {{"batches", DataType::kInteger},
                                 {"statements_planned", DataType::kInteger},
                                 {"shards", DataType::kInteger},
                                 {"bytes_sent", DataType::kInteger},
                                 {"bytes_received", DataType::kInteger},
                                 {"trace", DataType::kVarchar}});
  return Schema(std::move(columns));
}

Schema LfpIterationsSchema() {
  return Schema({
      {"query_id", DataType::kInteger},
      {"node", DataType::kVarchar},
      {"is_clique", DataType::kInteger},
      {"iter", DataType::kInteger},
      {"delta_rows", DataType::kInteger},
      {"new_rows", DataType::kInteger},
      {"driver_rows", DataType::kInteger},
      {"rhs_us", DataType::kInteger},
      {"term_us", DataType::kInteger},
  });
}

Schema MetricsSchema() {
  return Schema({
      {"name", DataType::kVarchar},
      {"kind", DataType::kVarchar},
      {"value", DataType::kInteger},
      {"sum", DataType::kInteger},
      {"max", DataType::kInteger},
      {"p50", DataType::kInteger},
      {"p99", DataType::kInteger},
  });
}

Schema SessionsSchema() {
  return Schema({
      {"session_id", DataType::kInteger},
      {"epoch", DataType::kInteger},
      {"testbed_epoch", DataType::kInteger},
      {"snapshot_age", DataType::kInteger},
      {"queries", DataType::kInteger},
  });
}

Schema ConnectionsSchema() {
  return Schema({
      {"connection_id", DataType::kInteger},
      {"peer", DataType::kVarchar},
      {"session_id", DataType::kInteger},
      {"frames_received", DataType::kInteger},
      {"bytes_in", DataType::kInteger},
      {"bytes_out", DataType::kInteger},
      {"queries", DataType::kInteger},
      {"requests", DataType::kInteger},
      {"errors", DataType::kInteger},
      {"age_us", DataType::kInteger},
  });
}

Schema ServerSchema() { return MetricsSchema(); }

Schema ShardsSchema() {
  return Schema({
      {"name", DataType::kVarchar},
      {"kind", DataType::kVarchar},
      {"shard", DataType::kInteger},
      {"rows", DataType::kInteger},
      {"bytes", DataType::kInteger},
      {"morsels", DataType::kInteger},
      {"scan_batches", DataType::kInteger},
  });
}

Schema WalSchema() {
  return Schema({
      {"enabled", DataType::kInteger},
      {"path", DataType::kVarchar},
      {"last_lsn", DataType::kInteger},
      {"appends", DataType::kInteger},
      {"fsyncs", DataType::kInteger},
      {"fsync", DataType::kInteger},
      {"group_commit", DataType::kInteger},
  });
}

Schema CheckpointsSchema() {
  return Schema({
      {"path", DataType::kVarchar},
      {"last_lsn", DataType::kInteger},
      {"epoch", DataType::kInteger},
  });
}

Schema SettingsSchema() {
  return Schema({
      {"name", DataType::kVarchar},
      {"value", DataType::kVarchar},
  });
}

/// Materializes `rows` into an anonymous snapshot table for one scan,
/// streaming them through the bulk AppendBatch path.
Result<std::shared_ptr<const Table>> Materialize(
    const std::string& name, const Schema& schema,
    std::vector<Tuple> rows) {
  auto table = std::make_shared<Table>(name, schema);
  RowBatch batch;
  batch.Reset(schema.num_columns());
  for (Tuple& row : rows) {
    batch.AppendRow(std::move(row));
    if (batch.full()) {
      DKB_RETURN_IF_ERROR(table->AppendBatch(batch));
      batch.Reset(schema.num_columns());
    }
  }
  if (!batch.empty()) DKB_RETURN_IF_ERROR(table->AppendBatch(batch));
  return std::shared_ptr<const Table>(std::move(table));
}

Result<std::shared_ptr<const Table>> QueryLogProvider(Testbed* tb) {
  std::vector<Tuple> rows;
  for (const QueryLogEntry& e : tb->recorder().Snapshot()) {
    Tuple row = {IntVal(e.query_id),     IntVal(e.session_id),
                 IntVal(e.ts_us),        Value(e.query),
                 Value(e.strategy),      BoolVal(e.magic),
                 BoolVal(e.from_cache),  BoolVal(e.executed),
                 IntVal(e.rows_out),     IntVal(e.iterations),
                 IntVal(e.total_us)};
    // A compile-only query has no execution phases; they render as 0.
    for (size_t i = 0; i < kPhaseColumns; ++i) {
      row.push_back(IntVal(i < e.phases.size() ? e.phases[i].micros : 0));
    }
    row.insert(row.end(),
               {IntVal(e.batches), IntVal(e.statements_planned),
                IntVal(e.shards), IntVal(e.bytes_sent),
                IntVal(e.bytes_received),
                Value(e.trace == nullptr ? std::string()
                                         : e.trace->RenderChromeTrace())});
    rows.push_back(std::move(row));
  }
  return Materialize("sys.query_log", QueryLogSchema(), std::move(rows));
}

Result<std::shared_ptr<const Table>> LfpIterationsProvider(Testbed* tb) {
  std::vector<Tuple> rows;
  for (const QueryLogEntry& e : tb->recorder().Snapshot()) {
    for (const QueryLogEntry::LfpIteration& it : e.lfp_iterations) {
      rows.push_back(Tuple{IntVal(e.query_id), Value(it.node),
                           BoolVal(it.is_clique), IntVal(it.iter),
                           IntVal(it.delta_rows), IntOrNull(it.new_rows),
                           IntOrNull(it.driver_rows), IntOrNull(it.rhs_us),
                           IntOrNull(it.term_us)});
    }
  }
  return Materialize("sys.lfp_iterations", LfpIterationsSchema(),
                     std::move(rows));
}

Result<std::shared_ptr<const Table>> MetricsProvider() {
  std::vector<Tuple> rows;
  for (const metrics::MetricSample& s : metrics::GlobalMetrics().Snapshot()) {
    rows.push_back(Tuple{Value(s.name), Value(s.kind), IntVal(s.value),
                         IntVal(s.sum), IntVal(s.max), IntVal(s.p50),
                         IntVal(s.p99)});
  }
  return Materialize("sys.metrics", MetricsSchema(), std::move(rows));
}

Result<std::shared_ptr<const Table>> SessionsProvider(Testbed* tb) {
  const int64_t current = static_cast<int64_t>(tb->epoch());
  std::vector<Tuple> rows;
  for (const Testbed::SessionInfo& s : tb->SessionSnapshot()) {
    const int64_t epoch = static_cast<int64_t>(s.epoch);
    rows.push_back(Tuple{IntVal(s.session_id), IntVal(epoch),
                         IntVal(current), IntVal(current - epoch),
                         IntVal(s.queries)});
  }
  return Materialize("sys.sessions", SessionsSchema(), std::move(rows));
}

Result<std::shared_ptr<const Table>> ConnectionsProvider(Testbed* tb) {
  std::vector<Tuple> rows;
  for (const Testbed::ConnectionInfo& c : tb->ConnectionsSnapshot()) {
    rows.push_back(Tuple{IntVal(c.connection_id), Value(c.peer),
                         IntVal(c.session_id), IntVal(c.frames_received),
                         IntVal(c.bytes_in), IntVal(c.bytes_out),
                         IntVal(c.queries), IntVal(c.requests),
                         IntVal(c.errors), IntVal(c.age_us)});
  }
  return Materialize("sys.connections", ConnectionsSchema(), std::move(rows));
}

Result<std::shared_ptr<const Table>> ServerProvider(Testbed* tb) {
  std::vector<Tuple> rows;
  for (const metrics::MetricSample& s : tb->ServerStatsSnapshot()) {
    rows.push_back(Tuple{Value(s.name), Value(s.kind), IntVal(s.value),
                         IntVal(s.sum), IntVal(s.max), IntVal(s.p50),
                         IntVal(s.p99)});
  }
  return Materialize("sys.server", ServerSchema(), std::move(rows));
}

Result<std::shared_ptr<const Table>> ShardsProvider(Testbed* tb) {
  // Approximate statistics, like sys.metrics: per-shard row counts and the
  // morsel counters are read without the session-layer lock, so a row may
  // reflect a write in progress. rows/bytes are 0 for interner segments
  // (rows = distinct strings there; payload bytes live in the dictionary).
  std::vector<Tuple> rows;
  Catalog& catalog = tb->db().catalog();
  std::vector<std::string> names = catalog.TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    auto source = catalog.GetSource(name);
    if (!source.ok()) continue;  // dropped since TableNames()
    const ScanSource& src = **source;
    for (size_t s = 0; s < src.shard_count(); ++s) {
      const Table& shard = src.shard(s);
      rows.push_back(Tuple{
          Value(src.name()), Value("table"), IntVal(static_cast<int64_t>(s)),
          IntVal(static_cast<int64_t>(shard.num_tuples())),
          IntVal(static_cast<int64_t>(shard.ApproxBytes())),
          IntVal(static_cast<int64_t>(shard.morsels_dispatched())),
          IntVal(static_cast<int64_t>(shard.scan_batches()))});
    }
  }
  const auto segments = GlobalStringDict().SegmentSizes();
  for (size_t i = 0; i < segments.size(); ++i) {
    rows.push_back(Tuple{Value("<interner>"), Value("interner"),
                         IntVal(static_cast<int64_t>(i)),
                         IntVal(static_cast<int64_t>(segments[i])), IntVal(0),
                         IntVal(0), IntVal(0)});
  }
  return Materialize("sys.shards", ShardsSchema(), std::move(rows));
}

Result<std::shared_ptr<const Table>> WalProvider(Testbed* tb) {
  // Always one row; a disabled WAL renders as enabled=0 with empty path so
  // `SELECT * FROM sys.wal` is a valid liveness probe either way.
  const Testbed::WalInfo info = tb->WalSnapshot();
  std::vector<Tuple> rows;
  rows.push_back(Tuple{BoolVal(info.enabled), Value(info.path),
                       IntVal(static_cast<int64_t>(info.last_lsn)),
                       IntVal(info.appends), IntVal(info.fsyncs),
                       BoolVal(info.fsync), BoolVal(info.group_commit)});
  return Materialize("sys.wal", WalSchema(), std::move(rows));
}

Result<std::shared_ptr<const Table>> CheckpointsProvider(Testbed* tb) {
  // Zero rows without a durable checkpoint on disk, one row with (peeked
  // fresh from the file so the view survives out-of-band tampering).
  const Testbed::CheckpointStat stat = tb->CheckpointSnapshot();
  std::vector<Tuple> rows;
  if (stat.exists) {
    rows.push_back(Tuple{Value(stat.path),
                         IntVal(static_cast<int64_t>(stat.last_lsn)),
                         IntVal(static_cast<int64_t>(stat.epoch))});
  }
  return Materialize("sys.checkpoints", CheckpointsSchema(), std::move(rows));
}

Result<std::shared_ptr<const Table>> SettingsProvider(Testbed* tb) {
  const TestbedOptions& opts = tb->options();
  const QueryOptions defaults;
  const SlowQueryLogOptions slow = tb->recorder().slow_query_log();
  // Read-only peek at the same variable GlobalThreadPool reads once at
  // startup; nothing in the process calls setenv, so the mt-unsafe getenv
  // race cannot occur here.
  const char* threads_env =
      std::getenv("DKB_THREADS");  // NOLINT(concurrency-mt-unsafe)
  std::vector<std::pair<std::string, std::string>> settings = {
      {"default_strategy", lfp::StrategyName(defaults.strategy)},
      {"default_use_magic", defaults.use_magic ? "on" : "off"},
      {"default_use_cache", defaults.use_cache ? "on" : "off"},
      {"default_lfp_parallelism",
       std::to_string(defaults.EffectivePolicy().lfp_parallelism)},
      {"edb_first_column_index",
       opts.stored.index_edb_first_column ? "on" : "off"},
      {"compiled_rule_storage",
       opts.stored.compiled_rule_storage ? "on" : "off"},
      {"default_shards", std::to_string(opts.shards)},
      {"wal_dir", opts.wal_dir},
      {"wal_fsync", opts.wal_fsync ? "on" : "off"},
      {"wal_group_commit", opts.wal_group_commit ? "on" : "off"},
      {"vacuum_interval_ms", std::to_string(opts.vacuum_interval_ms)},
      {"flight_recorder_capacity",
       std::to_string(tb->recorder().capacity())},
      {"slow_query_threshold_us", std::to_string(slow.threshold_us)},
      {"slow_query_log_format", slow.json ? "json" : "text"},
      {"dkb_threads_env", threads_env == nullptr ? "" : threads_env},
      {"hardware_threads",
       std::to_string(std::thread::hardware_concurrency())},
  };
  std::vector<Tuple> rows;
  rows.reserve(settings.size());
  for (auto& [name, value] : settings) {
    rows.push_back(Tuple{Value(std::move(name)), Value(std::move(value))});
  }
  return Materialize("sys.settings", SettingsSchema(), std::move(rows));
}

}  // namespace

const std::vector<SystemViewDef>& SystemViewDefs() {
  static const std::vector<SystemViewDef>* defs =
      new std::vector<SystemViewDef>{
          {"sys.query_log", QueryLogSchema(),
           "flight-recorder ring of completed queries (newest last)"},
          {"sys.lfp_iterations", LfpIterationsSchema(),
           "per-node per-iteration delta cardinalities; semi-naive also "
           "counts new and driver rows and times rhs and term"},
          {"sys.metrics", MetricsSchema(),
           "live snapshot of the global metrics registry"},
          {"sys.sessions", SessionsSchema(),
           "open concurrent sessions and snapshot staleness"},
          {"sys.shards", ShardsSchema(),
           "per-shard row/byte/morsel statistics and interner segments"},
          {"sys.connections", ConnectionsSchema(),
           "live network connections (empty unless a dkb_server is "
           "attached)"},
          {"sys.server", ServerSchema(),
           "server request-lifecycle telemetry (empty unless a dkb_server "
           "is attached)"},
          {"sys.settings", SettingsSchema(),
           "effective testbed and query-default configuration"},
          {"sys.wal", WalSchema(),
           "write-ahead-log position and flush statistics"},
          {"sys.checkpoints", CheckpointsSchema(),
           "the durable checkpoint image in wal_dir (empty before the "
           "first Checkpoint())"},
      };
  return *defs;
}

Status RegisterSystemViews(Database* db, Testbed* testbed) {
  Catalog& catalog = db->catalog();
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.query_log", QueryLogSchema(),
      [testbed]() { return QueryLogProvider(testbed); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.lfp_iterations", LfpIterationsSchema(),
      [testbed]() { return LfpIterationsProvider(testbed); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.metrics", MetricsSchema(), []() { return MetricsProvider(); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.sessions", SessionsSchema(),
      [testbed]() { return SessionsProvider(testbed); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.shards", ShardsSchema(),
      [testbed]() { return ShardsProvider(testbed); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.connections", ConnectionsSchema(),
      [testbed]() { return ConnectionsProvider(testbed); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.server", ServerSchema(),
      [testbed]() { return ServerProvider(testbed); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.settings", SettingsSchema(),
      [testbed]() { return SettingsProvider(testbed); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.wal", WalSchema(), [testbed]() { return WalProvider(testbed); }));
  DKB_RETURN_IF_ERROR(catalog.RegisterVirtualTable(
      "sys.checkpoints", CheckpointsSchema(),
      [testbed]() { return CheckpointsProvider(testbed); }));
  return Status::OK();
}

}  // namespace dkb::testbed
