// The three workloads: fixture set-up, the closed loop, and the metrics of
// the untraced and traced runs.
//
//   closure_tree  in-process, 1 client, semi-naive, no magic, no cache:
//                 ancestor(<level 0-2 node>, W) on a depth-11 binary tree.
//                 The per-tuple LFP path (temp/rhs/term, joins, scans).
//   point_magic   2 RemoteClients over loopback to an in-process server,
//                 generalized magic, no cache: ancestor(<level 8-11 node>,
//                 W) on a depth-14 tree beside a 200-rule stored rule base.
//                 Per-query fixed costs (compile, SQL per statement, wire).
//   write_mix     in-process, 1 client, WAL with fsync and group commit:
//                 70% fact commits, 20% magic+cache queries, 10% rule
//                 updates, a checkpoint after every 500th fact commit.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "client/in_process_client.h"
#include "client/remote_client.h"

namespace perfbench {

using dkb::Result;
using dkb::Status;
using dkb::testbed::QueryOptions;

namespace {

enum class Kind { kClosureTree, kPointMagic, kWriteMix };

struct WorkloadDef {
  Kind kind;
  FixtureSpec fixture;
  int clients = 1;
  bool remote = false;
  QueryOptions options;
  int tree_lo = 0;  // goal node levels (tree workloads)
  int tree_hi = 0;
  int setup_reps = 3;   // set-ups before the loop; setup_s is the median
  int warmup_ops = 0;   // per client, before any timing
  int probe_goals = 8;  // sample goals of the layer probe
  /// Ops per round; after a round the fixture is rebuilt outside the timed
  /// window. 0 = one round. Every committed rule stays in the Stored DKB and
  /// widens the next update's upstream set, so write_mix would otherwise
  /// slow down in proportion to its own throughput.
  int64_t round_ops = 0;
};

Result<WorkloadDef> Define(const std::string& name) {
  WorkloadDef d;
  if (name == "closure_tree") {
    d.kind = Kind::kClosureTree;
    d.fixture.tree_depth = 11;
    d.options = QueryOptions::SemiNaive();
    d.tree_lo = 0;
    d.tree_hi = 2;
    d.setup_reps = 31;
    d.warmup_ops = 3;
    d.probe_goals = 6;
  } else if (name == "point_magic") {
    d.kind = Kind::kPointMagic;
    d.fixture.tree_depth = 14;
    d.fixture.rule_base = 200;
    d.fixture.server = true;
    d.clients = 2;
    d.remote = true;
    d.options = QueryOptions::Magic();
    d.tree_lo = 8;
    d.tree_hi = 11;
    d.setup_reps = 11;
    d.warmup_ops = 200;
    d.probe_goals = 48;
  } else if (name == "write_mix") {
    d.kind = Kind::kWriteMix;
    d.fixture.rule_base = 200;
    d.fixture.initial_chains = 256;
    d.fixture.wal = true;
    d.options = QueryOptions::Magic().WithCache();
    d.setup_reps = 3;
    d.warmup_ops = 50;
    d.probe_goals = 48;
    d.round_ops = 1000;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return d;
}

constexpr int kCheckpointEvery = 500;  // fact commits between checkpoints

/// One closed-loop client: its connection, its input stream, and what it
/// measured.
struct ClientState {
  int index = 0;
  std::unique_ptr<dkb::Client> client;
  Rng rng{0};
  Samples query_us;
  int64_t ops = 0;
  int64_t queries = 0;
  int64_t cache_hits = 0;
  std::unique_ptr<SpanLog> log;
};

/// Everything one run owns. Clients are declared after the fixture so they
/// disconnect before the server stops.
struct Bench {
  const Args* args = nullptr;
  WorkloadDef def;
  Tree tree;
  Fixture fx;
  std::vector<ClientState> clients;
  OpCounter ops;
  Samples setup_s;
  int builds = 0;
  int64_t round_ops = 0;
  /// Fact commits and rule updates through clients[0]: write_mix's loop
  /// and the other workloads' write probe.
  std::unique_ptr<Writer> writer;
  Samples fact_us;
  Samples rule_us;
  Samples checkpoint_us;
  int64_t facts_committed = 0;
};

/// Tears down the current fixture (clients, then server, then testbed) and
/// builds a fresh one with connected clients; the build is timed into
/// setup_s, the teardown is not. Clients keep their input streams and
/// samples across rebuilds.
Status Build(Bench* b) {
  for (ClientState& c : b->clients) c.client.reset();
  b->writer.reset();
  b->fx.server.reset();
  b->fx.tb.reset();
  if (!b->fx.wal_dir.empty()) std::filesystem::remove_all(b->fx.wal_dir);
  const std::string wal_dir =
      b->args->scratch_dir + "/wal" + std::to_string(b->builds++);

  const int64_t start = NowNs();
  DKB_ASSIGN_OR_RETURN(b->fx, MakeFixture(b->def.fixture, wal_dir));
  for (ClientState& c : b->clients) {
    if (b->def.remote) {
      DKB_ASSIGN_OR_RETURN(c.client, dkb::RemoteClient::Connect(b->fx.address));
    } else {
      c.client = std::make_unique<dkb::InProcessClient>(b->fx.tb.get());
    }
  }
  b->setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);

  b->writer = std::make_unique<Writer>(b->clients[0].client.get(),
                                       b->fx.chains, 0);
  b->round_ops = 0;
  b->facts_committed = 0;
  return Status::OK();
}

/// One query op: the goal's call through the client, timed at the caller,
/// then the oracle check outside the timed span.
void QueryOp(Bench* b, ClientState* c, const std::string& goal,
             const std::vector<std::string>& expected, SpanLog* log,
             int64_t op_id) {
  b->ops.Attempt();
  const int64_t start = NowNs();
  Result<dkb::QueryResultSet> rs = Status::Internal("not run");
  {
    ScopedSpan op(log, "op.query", op_id);
    ScopedSpan call(log, b->def.remote ? "net.query" : "testbed.query");
    rs = c->client->Query(goal, b->def.options);
  }
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  if (!rs.ok()) {
    b->ops.Fail(goal + ": " + rs.status().ToString());
    return;
  }
  c->query_us.Add(us);
  ++c->queries;
  if (rs->from_cache) ++c->cache_hits;
  CheckAnswers(rs->rows, expected, &b->ops, goal);
}

void TreeOp(Bench* b, ClientState* c, SpanLog* log, int64_t op_id) {
  const int64_t node = b->tree.RandomNode(&c->rng, b->def.tree_lo,
                                          b->def.tree_hi);
  const std::string goal = b->tree.Goal(node);
  // The oracle's answer set is built before the call and compared after
  // it; neither is inside the timed interval.
  const std::vector<std::string> expected = b->tree.Descendants(node);
  QueryOp(b, c, goal, expected, log, op_id);
}

void WriteMixOp(Bench* b, ClientState* c, SpanLog* log, int64_t op_id) {
  const int64_t draw = c->rng.Uniform(0, 99);
  if (draw < 70) {
    ScopedSpan op(log, "op.fact_commit", op_id);
    if (b->writer->CommitChain(&b->ops, log, op_id, &b->fact_us) < 0) return;
    ++b->fx.chains;
    if (++b->facts_committed % kCheckpointEvery == 0) {
      b->ops.Attempt();
      const int64_t start = NowNs();
      Status st;
      {
        ScopedSpan span(log, "storage.checkpoint", op_id);
        st = b->fx.tb->Checkpoint();
      }
      b->checkpoint_us.Add(static_cast<double>(NowNs() - start) / 1e3);
      if (!st.ok()) b->ops.Fail("Checkpoint: " + st.ToString());
    }
  } else if (draw < 90) {
    const int64_t k = c->rng.Uniform(0, b->fx.chains - 1);
    QueryOp(b, c, ChainGoal(k), ChainAnswers(k), log, op_id);
  } else {
    ScopedSpan op(log, "op.rule_update", op_id);
    b->writer->UpdateRule(&b->ops, log, op_id, &b->rule_us);
  }
}

void OneOp(Bench* b, ClientState* c, bool traced) {
  const int64_t op_id = int64_t{c->index} * 1000000000 + c->ops++;
  SpanLog* log = traced ? c->log.get() : nullptr;
  if (b->def.kind == Kind::kWriteMix) {
    WriteMixOp(b, c, log, op_id);
  } else {
    TreeOp(b, c, log, op_id);
  }
}

/// Runs every client in a closed loop until `seconds` of loop time have
/// passed: each client issues its next op only after the previous one
/// returned. Round rebuilds pause the clock. Returns the loop seconds.
double ClosedLoop(Bench* b, double seconds, bool traced) {
  double timed = 0;
  while (true) {
    const int64_t start = NowNs();
    const int64_t deadline =
        start + static_cast<int64_t>((seconds - timed) * 1e9);
    const bool rounds = b->def.round_ops > 0;  // single-client workloads only
    auto drive = [b, deadline, traced, rounds](ClientState* c) {
      while (NowNs() < deadline &&
             (!rounds || b->round_ops < b->def.round_ops)) {
        OneOp(b, c, traced);
        if (rounds) ++b->round_ops;
      }
    };
    if (b->clients.size() == 1) {
      drive(&b->clients[0]);
    } else {
      std::vector<std::thread> threads;
      for (ClientState& c : b->clients) threads.emplace_back(drive, &c);
      for (std::thread& t : threads) t.join();
    }
    timed += static_cast<double>(NowNs() - start) / 1e9;
    if (timed >= seconds) return timed;
    Status st = Build(b);
    if (!st.ok()) {
      b->ops.Fail("rebuild: " + st.ToString());
      return timed;
    }
  }
}

int64_t TotalOps(const Bench& b) {
  int64_t n = 0;
  for (const ClientState& c : b.clients) n += c.ops;
  return n;
}

Samples AllQueryUs(const Bench& b) {
  Samples all;
  for (const ClientState& c : b.clients) all.Append(c.query_us);
  return all;
}

/// Times fact commits and rule updates through the workload's own client
/// after its loop, for the workloads whose loop makes no writes.
void WriteProbe(Bench* b, int commits, int updates) {
  for (int i = 0; i < commits; ++i) {
    if (b->writer->CommitChain(&b->ops, nullptr, -1, &b->fact_us) >= 0) {
      ++b->fx.chains;
    }
  }
  for (int i = 0; i < updates; ++i) {
    b->writer->UpdateRule(&b->ops, nullptr, -1, &b->rule_us);
  }
}

/// Deterministic probe goals (drawn from the seed, independent of how far
/// the timed loop got) with their answers.
void ProbeGoals(const Bench& b, uint64_t seed, int n, ProbeSpec* spec) {
  Rng rng(seed * 7919 + 17);
  for (int i = 0; i < n; ++i) {
    if (b.def.kind == Kind::kWriteMix) {
      const int64_t k = rng.Uniform(0, b.def.fixture.initial_chains - 1);
      spec->goals.push_back(ChainGoal(k));
      spec->answers.push_back(ChainAnswers(k));
    } else {
      const int64_t node = b.tree.RandomNode(&rng, b.def.tree_lo,
                                             b.def.tree_hi);
      spec->goals.push_back(b.tree.Goal(node));
      spec->answers.push_back(b.tree.Descendants(node));
    }
  }
}

/// Untraced run: the loop in equal windows, each followed (for the
/// workloads whose loop makes no writes) by a slice of the write probe on a
/// fresh fixture. ops_per_s and the p50s pool the whole run, so they
/// average over slow and fast phases of a shared host; query_p90_us is the
/// median of the per-window p90s, so a burst of interference moves one
/// window's tail, not the run's.
void UntracedRun(Bench* b, RunOutput* out) {
  constexpr int kWindows = 10;
  const bool write_probe = b->def.kind != Kind::kWriteMix;
  const int commits = b->args->short_mode ? 2 : 100;  // per window
  const int updates = b->args->short_mode ? 1 : 20;
  Samples query_us, p90, fact_us, rule_us;
  double loop_s = 0;
  for (int w = 0; w < kWindows; ++w) {
    for (ClientState& c : b->clients) c.query_us = Samples();
    b->fact_us = b->rule_us = Samples();
    loop_s += ClosedLoop(b, b->args->seconds / kWindows, false);
    if (write_probe) {
      WriteProbe(b, commits, updates);
      // A fresh fixture for the next slice, so every slice's rule updates
      // start from the same Stored DKB (see WorkloadDef::round_ops).
      Status st = Build(b);
      if (!st.ok()) b->ops.Fail("rebuild: " + st.ToString());
    }
    const Samples window = AllQueryUs(*b);
    p90.Add(window.Quantile(0.9));
    query_us.Append(window);
    fact_us.Append(b->fact_us);
    rule_us.Append(b->rule_us);
  }
  out->metrics = {
      {"setup_s", b->setup_s.Quantile(0.5), "s"},
      {"ops_per_s", static_cast<double>(TotalOps(*b)) / loop_s, "1/s"},
      {"query_p50_us", query_us.Quantile(0.5), "us"},
      {"query_p90_us", p90.Quantile(0.5), "us"},
      {"fact_commit_p50_us", fact_us.Quantile(0.5), "us"},
      {"rule_update_p50_us", rule_us.Quantile(0.5), "us"},
      {"rss_peak_mb", PeakRssMb(), "MiB"},
  };
  out->detail += " loop_ops=" + std::to_string(TotalOps(*b)) +
                 " windows=" + std::to_string(kWindows) +
                 " query_samples=" + std::to_string(query_us.size()) +
                 " fact_commit_samples=" + std::to_string(fact_us.size()) +
                 " rule_update_samples=" + std::to_string(rule_us.size()) +
                 " checkpoints=" + std::to_string(b->checkpoint_us.size()) +
                 " setups=" + std::to_string(b->setup_s.size());
}

/// Traced run: the layer probe, then the loop in alternating untraced and
/// traced windows (trace.overhead_pct compares their throughput).
void TracedRun(Bench* b, RunOutput* out) {
  auto probe_log = std::make_unique<SpanLog>(0);
  ProbeSpec spec;
  spec.fx = &b->fx;
  spec.options = b->def.options;
  spec.scan_relation = b->def.kind == Kind::kWriteMix ? "wpar" : "parent";
  spec.scratch_dir = b->args->scratch_dir;
  ProbeGoals(*b, b->args->seed, b->def.probe_goals, &spec);
  RunLayerProbe(spec, probe_log.get(), &out->metrics, &b->ops);
  if (b->def.round_ops > 0) {
    Status st = Build(b);  // the probe's rule updates stay out of the loop
    if (!st.ok()) b->ops.Fail("rebuild: " + st.ToString());
  }

  constexpr int kWindows = 8;
  double plain_s = 0, traced_s = 0;
  int64_t plain_ops = 0, traced_ops = 0;
  for (int w = 0; w < kWindows; ++w) {
    const bool traced = (w % 2) == 1;
    const int64_t before = TotalOps(*b);
    const double s = ClosedLoop(b, b->args->seconds / kWindows, traced);
    (traced ? traced_s : plain_s) += s;
    (traced ? traced_ops : plain_ops) += TotalOps(*b) - before;
  }
  const double plain_rate = static_cast<double>(plain_ops) / plain_s;
  const double traced_rate = static_cast<double>(traced_ops) / traced_s;
  int64_t queries = 0, hits = 0;
  for (const ClientState& c : b->clients) {
    queries += c.queries;
    hits += c.cache_hits;
  }
  if (b->def.remote) {
    // The loop's server, read after the loop: queueing under 2 clients.
    const double queue = ServerQueueP50Us(b->fx.address);
    for (Metric& m : out->metrics) {
      if (m.name == "net.server_queue_p50_us") m.value = queue;
    }
  }
  out->metrics.push_back(
      {"testbed.cache_hit_frac",
       queries > 0 ? static_cast<double>(hits) / queries : 0, "fraction"});
  out->metrics.push_back(
      {"trace.overhead_pct",
       traced_rate > 0 ? (plain_rate / traced_rate - 1.0) * 100.0 : 0, "%"});
  out->detail += " loop_ops=" + std::to_string(TotalOps(*b)) +
                 " probe_goals=" + std::to_string(spec.goals.size());
  out->logs.push_back(std::move(probe_log));
  for (ClientState& c : b->clients) out->logs.push_back(std::move(c.log));
}

}  // namespace

RunOutput RunWorkload(const Args& args) {
  RunOutput out;
  Result<WorkloadDef> def = Define(args.workload);
  if (!def.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", def.status().ToString().c_str());
    out.failed = out.attempted = 1;
    return out;
  }
  Bench b;
  b.args = &args;
  b.def = *def;
  if (args.short_mode) {
    b.def.setup_reps = 1;
    b.def.warmup_ops = std::min(b.def.warmup_ops, 10);
    b.def.probe_goals = std::min(b.def.probe_goals, 4);
  }
  b.tree.nodes = (int64_t{1} << b.def.fixture.tree_depth) - 1;
  b.clients.resize(b.def.clients);
  for (int i = 0; i < b.def.clients; ++i) {
    b.clients[i].index = i;
    b.clients[i].rng = Rng(args.seed * 1000003 + static_cast<uint64_t>(i));
    b.clients[i].log = std::make_unique<SpanLog>(i + 1);
  }

  // Set-up, repeated; the last fixture is the one measured.
  for (int rep = 0; rep < b.def.setup_reps; ++rep) {
    Status st = Build(&b);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      out.failed = out.attempted = 1;
      return out;
    }
  }
  for (ClientState& c : b.clients) {
    for (int i = 0; i < b.def.warmup_ops; ++i) OneOp(&b, &c, false);
    c.query_us = Samples();
    c.ops = c.queries = c.cache_hits = 0;
  }
  b.round_ops = 0;
  b.fact_us = b.rule_us = b.checkpoint_us = Samples();

  out.detail = "workload=" + args.workload +
               " seed=" + std::to_string(args.seed) +
               " trace=" + (args.trace ? "1" : "0");
  if (args.trace) {
    TracedRun(&b, &out);
  } else {
    UntracedRun(&b, &out);
  }
  out.attempted = b.ops.attempted();
  out.failed = b.ops.failed();
  return out;
}

}  // namespace perfbench
