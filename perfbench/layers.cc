// The per-layer probe of a traced run: calls each layer's public functions
// on the workload's fixture, one at a time, with a span around every call,
// and derives the per-layer metrics from those spans and from the stats
// structs the calls return. Runs single-threaded while no client issues
// requests, so the direct calls on Testbed::db() never overlap a testbed
// writer.

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "client/remote_client.h"
#include "datalog/parser.h"
#include "km/naming.h"
#include "lfp/evaluator.h"
#include "net/wire.h"
#include "storage/codec.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "testbed/session.h"

namespace perfbench {

using dkb::Result;
using dkb::Status;

namespace {

constexpr int kCodecReps = 64;       // encodes/decodes per result set
constexpr int kWalRecords = 40;      // appends to the scratch log
constexpr int kCheckpoints = 3;      // checkpoint repetitions (median)
constexpr int kRuleUpdates = 10;     // Stored-DKB updates
constexpr int64_t kStorageNs = 50'000'000;  // per storage primitive
constexpr int kAppendBatchesPerTable = 64;  // bounds the scratch table

/// Sums of the stats structs the probed calls return.
struct Totals {
  int64_t queries = 0;
  dkb::km::CompilationStats compile;
  dkb::lfp::ExecutionStats exec;
  int64_t derived = 0;  // tuples in every program node after the LFP
  dkb::exec::ExecStatsSnapshot db;
  int64_t prepared = 0;  // SQL texts prepared
  int64_t codec_rows = 0;
  dkb::km::UpdateStats update;
  int64_t updates = 0;
};

void AddCompile(const dkb::km::CompilationStats& s, Totals* t) {
  t->compile.t_extract_us += s.t_extract_us;
  t->compile.t_read_us += s.t_read_us;
  t->compile.t_analyze_us += s.t_analyze_us;
  t->compile.t_opt_us += s.t_opt_us;
  t->compile.t_gen_us += s.t_gen_us;
  t->compile.t_comp_us += s.t_comp_us;
}

void AddExec(const dkb::lfp::ExecutionStats& s,
             const dkb::exec::ExecStatsSnapshot& d, Totals* t) {
  t->exec.t_temp_us += s.t_temp_us;
  t->exec.t_rhs_us += s.t_rhs_us;
  t->exec.t_term_us += s.t_term_us;
  t->exec.t_final_us += s.t_final_us;
  t->exec.iterations += s.iterations;
  t->exec.answer_tuples += s.answer_tuples;
  for (const dkb::lfp::NodeStats& node : s.nodes) t->derived += node.tuples;
  t->db.rows_scanned += d.rows_scanned;
  t->db.index_probes += d.index_probes;
  t->db.join_output_rows += d.join_output_rows;
  t->db.statements += d.statements;
  t->db.statement_cache_hits += d.statement_cache_hits;
}

void AddUpdate(const dkb::km::UpdateStats& s, Totals* t) {
  t->update.t_extract_us += s.t_extract_us;
  t->update.t_tc_us += s.t_tc_us;
  t->update.t_typecheck_us += s.t_typecheck_us;
  t->update.t_dict_us += s.t_dict_us;
  t->update.t_store_us += s.t_store_us;
  ++t->updates;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Every probe step of one goal: parse, compile, LFP execution on the
/// testbed's database, SQL prepare, a session query, the in-process and
/// remote end-to-end queries, and the wire codec on the remote answer.
void ProbeGoal(const ProbeSpec& spec, size_t g, dkb::testbed::Session* session,
               dkb::RemoteClient* remote, SpanLog* log, int64_t op,
               OpCounter* ops, Totals* t) {
  dkb::testbed::Testbed* tb = spec.fx->tb.get();
  const std::string& goal = spec.goals[g];
  const std::vector<std::string>& answers = spec.answers[g];
  dkb::testbed::QueryOptions options = spec.options;
  options.use_cache = false;  // every call below compiles afresh
  ScopedSpan root(log, "probe.query", op);

  ops->Attempt();
  Result<dkb::datalog::Atom> atom = Status::Internal("not run");
  {
    ScopedSpan span(log, "datalog.parse");
    atom = dkb::datalog::ParseQuery(goal);
  }
  dkb::km::CompilationStats cstats;
  Result<dkb::km::CompiledQuery> compiled = Status::Internal("not run");
  if (atom.ok()) {
    ScopedSpan span(log, "km.compile");
    compiled = tb->CompileOnly(*atom, options, &cstats);
  }
  if (!compiled.ok()) {
    ops->Fail(goal + ": compile: " +
              (atom.ok() ? compiled.status() : atom.status()).ToString());
    return;
  }
  AddCompile(cstats, t);

  dkb::lfp::EvalOptions eopts;
  eopts.strategy = options.strategy;
  eopts.parallelism = options.EffectivePolicy().lfp_parallelism;
  dkb::lfp::ExecutionStats estats;
  const auto before = dkb::exec::ExecStatsSnapshot::Take(tb->db().stats());
  Result<dkb::QueryResult> executed = Status::Internal("not run");
  {
    ScopedSpan span(log, "lfp.execute");
    executed = dkb::lfp::ExecuteProgram(&tb->db(), compiled->program, eopts,
                                        &estats);
  }
  const auto delta =
      dkb::exec::ExecStatsSnapshot::Take(tb->db().stats()) - before;
  if (!executed.ok()) {
    ops->Fail(goal + ": execute: " + executed.status().ToString());
    return;
  }
  if (!CheckAnswers(executed->rows, answers, ops, goal)) return;
  AddExec(estats, delta, t);
  ++t->queries;

  {
    // A separate database with its statement cache off, so every text is
    // parsed.
    dkb::Database fresh;
    fresh.set_statement_cache_enabled(false);
    const std::vector<std::string> texts = compiled->program.AllSqlTexts();
    ScopedSpan span(log, "sql.prepare");
    for (const std::string& text : texts) {
      Result<dkb::PreparedStatement> stmt = fresh.Prepare(text);
      if (!stmt.ok()) ops->Fail("Prepare: " + stmt.status().ToString());
    }
    t->prepared += static_cast<int64_t>(texts.size());
  }

  ops->Attempt();
  Result<dkb::testbed::QueryOutcome> in_session = Status::Internal("not run");
  {
    ScopedSpan span(log, "testbed.session_query");
    in_session = session->Query(goal, options);
  }
  if (!in_session.ok()) {
    ops->Fail(goal + ": session: " + in_session.status().ToString());
  } else {
    CheckAnswers(in_session->result.rows, answers, ops, goal);
  }

  ops->Attempt();
  Result<dkb::testbed::QueryOutcome> in_process = Status::Internal("not run");
  {
    ScopedSpan span(log, "testbed.query");
    in_process = tb->Query(goal, options);
  }
  if (!in_process.ok()) {
    ops->Fail(goal + ": query: " + in_process.status().ToString());
  } else {
    CheckAnswers(in_process->result.rows, answers, ops, goal);
  }

  ops->Attempt();
  Result<dkb::QueryResultSet> over_wire = Status::Internal("not run");
  {
    ScopedSpan span(log, "net.query");
    over_wire = remote->Query(goal, options, dkb::net::kReportNone);
  }
  if (!over_wire.ok()) {
    ops->Fail(goal + ": remote: " + over_wire.status().ToString());
    return;
  }
  if (!CheckAnswers(over_wire->rows, answers, ops, goal)) return;

  std::string bytes;
  {
    ScopedSpan span(log, "net.encode");
    for (int i = 0; i < kCodecReps; ++i) {
      dkb::net::WireWriter w;
      dkb::net::EncodeResultSet(&w, *over_wire);
      bytes = w.Take();
    }
  }
  dkb::net::WireResultSet decoded;
  bool decoded_ok = true;
  {
    ScopedSpan span(log, "net.decode");
    for (int i = 0; i < kCodecReps; ++i) {
      dkb::net::WireReader r(bytes);
      decoded = dkb::net::WireResultSet();
      decoded_ok = dkb::net::DecodeResultSet(&r, &decoded) && decoded_ok;
    }
  }
  if (!decoded_ok) ops->Fail(goal + ": DecodeResultSet failed");
  CheckAnswers(decoded.rows, answers, ops, goal);
  t->codec_rows += static_cast<int64_t>(over_wire->rows.size()) * kCodecReps;
}

/// ScanBatch over the base relation and AppendBatch of 1,024-row batches
/// into a scratch table; returns {scan rows/s, append rows/s}.
std::pair<double, double> ProbeStorage(const ProbeSpec& spec, SpanLog* log,
                                       OpCounter* ops) {
  ops->Attempt();
  Result<dkb::ScanSource*> found = spec.fx->tb->db().catalog().GetSource(
      dkb::km::EdbTableName(spec.scan_relation));
  if (!found.ok() || (*found)->num_tuples() == 0) {
    ops->Fail("no rows to scan in " + spec.scan_relation);
    return {0, 0};
  }
  const dkb::ScanSource* source = *found;
  dkb::RowBatch batch;
  dkb::RowBatch full;  // the append probe's 1,024-row input
  full.Reset(source->schema().num_columns());
  int64_t scanned = 0, scan_ns = 0;
  while (scan_ns < kStorageNs) {
    const int64_t start = NowNs();
    {
      ScopedSpan span(log, "storage.scan");
      for (size_t s = 0; s < source->shard_count(); ++s) {
        dkb::RowId cursor = 0;
        while (true) {
          cursor = source->ScanBatch(s, cursor, &batch);
          if (batch.empty()) break;
          scanned += static_cast<int64_t>(batch.size());
          for (size_t i = 0; i < batch.size() && !full.full(); ++i) {
            full.AppendRow(batch.MaterializeTuple(i));
          }
        }
      }
    }
    scan_ns += NowNs() - start;
  }
  while (!full.full()) full.AppendRow(full.MaterializeTuple(full.size() % 7));

  int64_t appended = 0, append_ns = 0;
  while (append_ns < kStorageNs) {
    dkb::Table scratch("perfbench_append", source->schema());
    for (int i = 0; i < kAppendBatchesPerTable; ++i) {
      const int64_t start = NowNs();
      Status st;
      {
        ScopedSpan span(log, "storage.append");
        st = scratch.AppendBatch(full);
      }
      append_ns += NowNs() - start;
      if (!st.ok()) {
        ops->Fail("AppendBatch: " + st.ToString());
        return {0, 0};
      }
      appended += static_cast<int64_t>(full.size());
    }
  }
  return {Ratio(static_cast<double>(scanned), scan_ns / 1e9),
          Ratio(static_cast<double>(appended), append_ns / 1e9)};
}

/// Append + WaitDurable on a scratch log with the workloads' flush policy
/// (fsync, group commit), records shaped like one 8-edge fact commit.
void ProbeWal(const ProbeSpec& spec, SpanLog* log, OpCounter* ops) {
  const std::string path = spec.scratch_dir + "/probe.wal";
  std::filesystem::remove(path);
  ops->Attempt();
  Result<std::unique_ptr<dkb::Wal>> wal =
      dkb::Wal::Open(path, dkb::Wal::Options{true, true});
  if (!wal.ok()) {
    ops->Fail("Wal::Open: " + wal.status().ToString());
    return;
  }
  dkb::codec::Writer payload;
  payload.Str("wpar");
  payload.U32(8);
  for (int j = 0; j < 8; ++j) {
    payload.Row({dkb::Value(ChainNode(0, j)), dkb::Value(ChainNode(0, j + 1))});
  }
  for (int i = 0; i < kWalRecords; ++i) {
    Result<uint64_t> lsn = Status::Internal("not run");
    {
      ScopedSpan span(log, "storage.wal_append");
      lsn = (*wal)->Append(dkb::WalRecordKind::kAddFacts, payload.str());
    }
    Status durable = lsn.ok() ? Status::OK() : lsn.status();
    if (lsn.ok()) {
      ScopedSpan span(log, "storage.wal_durable");
      durable = (*wal)->WaitDurable(*lsn);
    }
    if (!durable.ok()) {
      ops->Fail("WAL: " + durable.ToString());
      break;
    }
  }
  wal->reset();
  std::filesystem::remove(path);
}

/// Checkpoint of the whole testbed: Testbed::Checkpoint with a WAL,
/// otherwise SaveSession (the same columnar checkpoint writer) to a scratch
/// file.
void ProbeCheckpoint(const ProbeSpec& spec, SpanLog* log, OpCounter* ops) {
  const std::string path = spec.scratch_dir + "/probe.ckpt";
  for (int i = 0; i < kCheckpoints; ++i) {
    ops->Attempt();
    Status st;
    {
      ScopedSpan span(log, "storage.checkpoint");
      st = spec.fx->wal_dir.empty() ? spec.fx->tb->SaveSession(path)
                                    : spec.fx->tb->Checkpoint();
    }
    if (!st.ok()) ops->Fail("checkpoint: " + st.ToString());
  }
  std::filesystem::remove(path);
}

/// Stored-DKB updates through the testbed, keeping their Table 8 phases.
void ProbeUpdates(const ProbeSpec& spec, SpanLog* log, OpCounter* ops,
                  Totals* t) {
  dkb::testbed::Testbed* tb = spec.fx->tb.get();
  for (int k = 0; k < kRuleUpdates; ++k) {
    const std::string rule = "wp" + std::to_string(k) +
                             "(X, Y) :- wanc(X, Z), wpar(Z, Y).";
    ops->Attempt();
    ScopedSpan root(log, "probe.rule_update", 3'000'000'000 + k);
    Status st;
    {
      ScopedSpan span(log, "testbed.add_rule");
      st = tb->AddRule(rule);
    }
    Result<dkb::km::UpdateStats> stats = Status::Internal("not run");
    if (st.ok()) {
      ScopedSpan span(log, "km.update");
      stats = tb->UpdateStoredDkb();
    }
    {
      ScopedSpan span(log, "testbed.clear_workspace");
      tb->ClearWorkspace();
    }
    if (!st.ok() || !stats.ok()) {
      ops->Fail(rule + ": " + (st.ok() ? stats.status() : st).ToString());
      continue;
    }
    AddUpdate(*stats, t);
  }
}

}  // namespace

double ServerQueueP50Us(const std::string& address) {
  Result<dkb::net::StatsReply> reply =
      dkb::RemoteClient::FetchStats(address, dkb::net::kStatsServer);
  if (!reply.ok()) return 0;
  for (const dkb::metrics::MetricSample& s : reply->server) {
    if (s.name == "queue_us") return static_cast<double>(s.p50);
  }
  return 0;
}

void RunLayerProbe(const ProbeSpec& spec, SpanLog* log,
                   std::vector<Metric>* out, OpCounter* ops) {
  dkb::testbed::Testbed* tb = spec.fx->tb.get();
  const bool remote_workload = !spec.fx->address.empty();
  // The wire probe needs a server: the workload's own, or one started on
  // the same testbed for the probe alone.
  std::unique_ptr<dkb::net::Server> probe_server;
  std::string address = spec.fx->address;
  if (address.empty()) {
    probe_server = std::make_unique<dkb::net::Server>();
    Status st = probe_server->Start(tb);
    if (!st.ok()) {
      ops->Fail("Server::Start: " + st.ToString());
      return;
    }
    address = "127.0.0.1:" + std::to_string(probe_server->port());
  }
  Result<std::unique_ptr<dkb::RemoteClient>> remote =
      dkb::RemoteClient::Connect(address);
  Result<std::unique_ptr<dkb::testbed::Session>> session = tb->OpenSession();
  if (!remote.ok() || !session.ok()) {
    ops->Fail("probe clients: " +
              (remote.ok() ? session.status() : remote.status()).ToString());
    return;
  }

  Totals t;
  for (size_t g = 0; g < spec.goals.size(); ++g) {
    ProbeGoal(spec, g, session->get(), remote->get(), log,
              2'000'000'000 + static_cast<int64_t>(g), ops, &t);
  }
  const auto [scan_rate, append_rate] = ProbeStorage(spec, log, ops);
  ProbeWal(spec, log, ops);
  ProbeCheckpoint(spec, log, ops);
  ProbeUpdates(spec, log, ops, &t);
  const double server_queue = ServerQueueP50Us(address);
  session->reset();
  remote->reset();
  if (probe_server != nullptr) probe_server->Stop();

  const std::vector<const SpanLog*> logs = {log};
  auto mean_us = [&logs](const char* name) {
    return SpanDurationsUs(logs, name).Mean();
  };
  const double q = static_cast<double>(t.queries);
  const double u = static_cast<double>(t.updates);
  const double answers = static_cast<double>(t.exec.answer_tuples);
  const Samples execute = SpanDurationsUs(logs, "lfp.execute");
  const Samples encode = SpanDurationsUs(logs, "net.encode");
  const Samples decode = SpanDurationsUs(logs, "net.decode");
  const double codec_rows = static_cast<double>(t.codec_rows);
  // How much of the caller-measured query latency the layer spans explain:
  // parse + compile + LFP execution, plus the wire codec for the remote
  // workload, over the end-to-end latency of the same goals on the
  // workload's own transport.
  double explained =
      mean_us("datalog.parse") + mean_us("km.compile") + execute.Mean();
  double end_to_end = mean_us("testbed.query");
  if (remote_workload) {
    explained += (encode.Mean() + decode.Mean()) / kCodecReps;
    end_to_end = mean_us("net.query");
  }
  const Samples net_query = SpanDurationsUs(logs, "net.query");
  const Samples session_query = SpanDurationsUs(logs, "testbed.session_query");

  std::vector<Metric> m = {
      {"datalog.parse_us", mean_us("datalog.parse"), "us"},
      {"km.compile_us", mean_us("km.compile"), "us"},
      {"km.t_extract_us", Ratio(t.compile.t_extract_us, q), "us"},
      {"km.t_read_us", Ratio(t.compile.t_read_us, q), "us"},
      {"km.t_analyze_us", Ratio(t.compile.t_analyze_us, q), "us"},
      {"km.t_opt_us", Ratio(t.compile.t_opt_us, q), "us"},
      {"km.t_gen_us", Ratio(t.compile.t_gen_us, q), "us"},
      {"km.t_comp_us", Ratio(t.compile.t_comp_us, q), "us"},
      {"km.update_us", mean_us("km.update"), "us"},
      {"km.update.t_extract_us", Ratio(t.update.t_extract_us, u), "us"},
      {"km.update.t_tc_us", Ratio(t.update.t_tc_us, u), "us"},
      {"km.update.t_typecheck_us", Ratio(t.update.t_typecheck_us, u), "us"},
      {"km.update.t_dict_us", Ratio(t.update.t_dict_us, u), "us"},
      {"km.update.t_store_us", Ratio(t.update.t_store_us, u), "us"},
      {"lfp.execute_us", execute.Mean(), "us"},
      {"lfp.t_temp_us", Ratio(t.exec.t_temp_us, q), "us"},
      {"lfp.t_rhs_us", Ratio(t.exec.t_rhs_us, q), "us"},
      {"lfp.t_term_us", Ratio(t.exec.t_term_us, q), "us"},
      {"lfp.t_final_us", Ratio(t.exec.t_final_us, q), "us"},
      {"lfp.iterations", Ratio(t.exec.iterations, q), "count"},
      {"lfp.us_per_answer", Ratio(execute.Sum(), answers), "us/answer"},
      {"lfp.answers_per_join_row",
       Ratio(t.derived, t.db.join_output_rows), "ratio"},
      {"exec.rows_scanned_per_answer", Ratio(t.db.rows_scanned, answers),
       "rows/answer"},
      {"exec.statements_per_query", Ratio(t.db.statements, q), "stmts/query"},
      {"exec.index_probes_per_query", Ratio(t.db.index_probes, q),
       "probes/query"},
      {"exec.stmt_cache_hit_frac",
       Ratio(t.db.statement_cache_hits, t.db.statements), "fraction"},
      {"sql.prepare_us_per_stmt",
       Ratio(SpanDurationsUs(logs, "sql.prepare").Sum(), t.prepared),
       "us/stmt"},
      {"storage.scan_rows_per_s", scan_rate, "rows/s"},
      {"storage.append_rows_per_s", append_rate, "rows/s"},
      {"storage.wal_append_us", mean_us("storage.wal_append"), "us"},
      {"storage.wal_durable_us", mean_us("storage.wal_durable"), "us"},
      {"storage.checkpoint_us",
       SpanDurationsUs(logs, "storage.checkpoint").Quantile(0.5), "us"},
      {"testbed.session_query_us", session_query.Mean(), "us"},
      {"net.encode_ns_per_row", Ratio(encode.Sum() * 1e3, codec_rows),
       "ns/row"},
      {"net.decode_ns_per_row", Ratio(decode.Sum() * 1e3, codec_rows),
       "ns/row"},
      {"net.roundtrip_overhead_us",
       net_query.Quantile(0.5) - session_query.Quantile(0.5), "us"},
      {"net.server_queue_p50_us", server_queue, "us"},
      {"trace.coverage_pct", Ratio(100.0 * explained, end_to_end), "%"},
  };
  out->insert(out->end(), m.begin(), m.end());
}

}  // namespace perfbench
