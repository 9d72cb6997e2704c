// Network layer characterization: round-trip latency and pipelined
// throughput of the binary wire protocol (dkb_server + RemoteClient).
// Not a paper figure: the 1988 testbed was a single-process system; this
// bench characterizes the network extension the same way the concurrency
// bench characterizes the in-process one.
//
//   dkb_bench [--smoke] [--connect host:port] net
//
// Without --connect an in-process dkb::net::Server on a loopback ephemeral
// port serves the run, so the bench is self-contained; with --connect it
// drives an already-running dkb_server (CI does this in the release job).
//
// Workloads (all on bench-owned bn* predicates, so pointing the bench at a
// long-lived server does not disturb other clients' predicates):
//   rtt_seminaive     sequential Query round trips, semi-naive, cold cache
//   rtt_magic         same goals under the generalized magic sets rewrite
//   update_interleaved  AddFacts (writer lock) interleaved with queries
//   sustain_pipelined  the headline: 512 concurrent connections (32 under
//                      --smoke), each keeping a window of pipelined query
//                      batches in flight
//   sustain_untraced / sustain_traced
//                      the pipelined sustain over the recursive closure
//                      goal, without and with every query sampled — the
//                      server builds and ships net.*-wrapped span trees;
//                      the qps delta is the trace-propagation overhead
//                      (target < 3%)

#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/remote_client.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "net/server.h"
#include "testbed/testbed.h"

namespace dkb::bench {
namespace {

int SustainConnections() { return SmokeSize(512, 32); }
int PipelineDepth() { return SmokeSize(8, 4); }
int BatchSize() { return SmokeSize(4, 2); }
int Windows() { return SmokeSize(4, 2); }

/// Trace-overhead rounds: the traced/untraced sustain pair alternates this
/// many times and each arm keeps its best round.
constexpr int kTraceRounds = 3;

/// See tools/dkb_server.cc: hundreds of client fds need headroom over the
/// usual 1024 soft limit.
void RaiseFdLimit(rlim_t want) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= want) return;
  rlimit raised = lim;
  raised.rlim_cur = want < lim.rlim_max ? want : lim.rlim_max;
  setrlimit(RLIMIT_NOFILE, &raised);
}

std::unique_ptr<RemoteClient> MustConnect(const std::string& target) {
  return Unwrap(RemoteClient::Connect(target), "RemoteClient::Connect");
}

/// Chain bn0 -> bn1 -> ... with the recursive closure rule, on names no
/// other workload uses.
void LoadFixture(const std::string& target, int chain) {
  auto client = MustConnect(target);
  std::string program;
  program += "bnanc(X, Y) :- bnpar(X, Y).\n";
  program += "bnanc(X, Y) :- bnpar(X, Z), bnanc(Z, Y).\n";
  for (int i = 0; i < chain; ++i) {
    program += "bnpar(bn" + std::to_string(i) + ", bn" +
               std::to_string(i + 1) + ").\n";
  }
  CheckOk(client->Consult(program), "consult bench fixture");
  CheckOk(client->DefineBase("bnupd", {DataType::kVarchar, DataType::kVarchar}),
          "DefineBase bnupd");
}

/// Latency summary of one workload.
struct WorkloadStats {
  std::string name;
  int connections = 0;
  int64_t requests = 0;
  // Heap-held: Histogram's atomics make it immovable, and workloads
  // are returned by value.
  std::shared_ptr<metrics::Histogram> latency =
      std::make_shared<metrics::Histogram>();
  double qps = 0.0;
};

/// Runs `body(conn_index, client)` on `connections` threads, one fresh
/// RemoteClient each, and returns the wall time of the whole fan-out.
template <typename F>
int64_t FanOut(const std::string& target, int connections, F&& body) {
  // Connect up front (serially — the handshakes are cheap) so the timed
  // region measures steady-state traffic, not connection setup.
  std::vector<std::unique_ptr<RemoteClient>> clients;
  clients.reserve(connections);
  for (int c = 0; c < connections; ++c) clients.push_back(MustConnect(target));
  std::atomic<int> failures{0};
  WallTimer timer;
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c]() {
      if (!body(c, clients[c].get())) failures.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  int64_t us = timer.ElapsedMicros();
  if (failures.load() > 0) {
    std::fprintf(stderr, "FATAL: %d connection worker(s) failed\n",
                 failures.load());
    std::exit(1);
  }
  return us;
}

/// Sequential round trips: one Query at a time per connection, cold plan
/// cache, so each sample is wire overhead + a real compile/execute.
WorkloadStats RunRtt(const std::string& target, const std::string& name,
                     const testbed::QueryOptions& options) {
  WorkloadStats stats;
  stats.name = name;
  stats.connections = SmokeSize(8, 4);
  const int reps = Reps(50, 5);
  const std::string goal = "bnanc(bn0, W)";
  int64_t wall_us = FanOut(target, stats.connections, [&](int, RemoteClient* c) {
    for (int i = 0; i < reps; ++i) {
      WallTimer t;
      auto rs = c->Query(goal, options, net::kReportNone);
      if (!rs.ok()) return false;
      stats.latency->Observe(t.ElapsedMicros());
    }
    return true;
  });
  stats.requests = static_cast<int64_t>(stats.connections) * reps;
  stats.qps = static_cast<double>(stats.requests) * 1e6 / wall_us;
  return stats;
}

/// AddFacts (testbed writer lock) interleaved with a query on every
/// connection: measures how mutations behave under connection concurrency.
WorkloadStats RunUpdateInterleaved(const std::string& target) {
  WorkloadStats stats;
  stats.name = "update_interleaved";
  stats.connections = SmokeSize(8, 2);
  const int reps = Reps(25, 3);
  auto options = testbed::QueryOptions::SemiNaive().WithCache();
  int64_t wall_us =
      FanOut(target, stats.connections, [&](int conn, RemoteClient* c) {
        for (int i = 0; i < reps; ++i) {
          std::string key =
              "u" + std::to_string(conn) + "_" + std::to_string(i);
          WallTimer t;
          if (!c->AddFacts("bnupd", {{Value(key), Value("v")}}).ok()) {
            return false;
          }
          auto rs = c->Query("bnanc(bn0, W)", options, net::kReportNone);
          if (!rs.ok()) return false;
          stats.latency->Observe(t.ElapsedMicros());
        }
        return true;
      });
  // One AddFacts + one Query per rep.
  stats.requests = static_cast<int64_t>(stats.connections) * reps * 2;
  stats.qps = static_cast<double>(stats.requests) * 1e6 / wall_us;
  return stats;
}

/// The headline sustain: every connection keeps `PipelineDepth()` query
/// batches in flight (SendQueryBatch without waiting, then collect), for
/// `Windows()` rounds. Latency samples are whole-window round trips.
/// With `collect_trace` on, every query is sampled: the server builds the
/// net.*-wrapped span tree and ships it back in each response — the
/// traced/untraced qps delta is the trace-overhead value.
WorkloadStats RunSustainPipelined(const std::string& target,
                                  const std::string& name,
                                  const std::string& goal,
                                  bool collect_trace) {
  WorkloadStats stats;
  stats.name = name;
  stats.connections = SustainConnections();
  const int depth = PipelineDepth();
  const int batch = BatchSize();
  const int windows = Windows();
  auto options = testbed::QueryOptions::SemiNaive().WithCache();
  options.collect_trace = collect_trace;
  std::vector<std::string> goals;
  for (int b = 0; b < batch; ++b) goals.push_back(goal);
  int64_t wall_us = FanOut(target, stats.connections, [&](int, RemoteClient* c) {
    for (int w = 0; w < windows; ++w) {
      WallTimer t;
      std::vector<uint32_t> in_flight;
      in_flight.reserve(depth);
      for (int d = 0; d < depth; ++d) {
        auto id = c->SendQueryBatch(goals, options, net::kReportNone);
        if (!id.ok()) return false;
        in_flight.push_back(*id);
      }
      for (uint32_t id : in_flight) {
        auto sets = c->ReceiveResultSets(id);
        if (!sets.ok() || sets->size() != goals.size()) return false;
        // Traced runs must actually be paying for span trees, or the
        // overhead number would be a lie.
        if (collect_trace && sets->front().trace == nullptr) return false;
      }
      stats.latency->Observe(t.ElapsedMicros());
    }
    return true;
  });
  stats.requests =
      static_cast<int64_t>(stats.connections) * windows * depth * batch;
  stats.qps = static_cast<double>(stats.requests) * 1e6 / wall_us;
  return stats;
}

}  // namespace

void Net(Report* report) {
  report->Banner("Network - wire round trips and pipelined connection sustain",
                 "extension beyond the single-user SIGMOD'88 testbed",
                 "pipelining amortizes round trips; hundreds of connections "
                 "sustain concurrent pipelined batches without errors");

  RaiseFdLimit(8192);

  // Self-contained by default: an in-process server on an ephemeral
  // loopback port. --connect points the same traffic at a real dkb_server.
  std::unique_ptr<testbed::Testbed> own_tb;
  net::Server own_server;
  std::string target = ConnectTarget();
  if (target.empty()) {
    own_tb = Unwrap(testbed::Testbed::Create(), "Testbed::Create");
    net::ServerOptions server_options;
    server_options.port = 0;  // ephemeral
    CheckOk(own_server.Start(own_tb.get(), server_options), "Server::Start");
    target = "127.0.0.1:" + std::to_string(own_server.port());
    std::printf("  in-process dkb_server on %s\n", target.c_str());
  } else {
    std::printf("  driving external server %s\n", target.c_str());
  }

  LoadFixture(target, SmokeSize(48, 12));

  std::vector<WorkloadStats> workloads;
  workloads.push_back(
      RunRtt(target, "rtt_seminaive", testbed::QueryOptions::SemiNaive()));
  workloads.push_back(
      RunRtt(target, "rtt_magic", testbed::QueryOptions::Magic()));
  workloads.push_back(RunUpdateInterleaved(target));
  // A non-recursive single-predicate goal: the sustain row measures how the
  // wire, the per-connection sessions, and the pipelining scale with
  // connection count — engine-heavy recursion is the rtt_* rows' job.
  workloads.push_back(RunSustainPipelined(target, "sustain_pipelined",
                                          "bnpar(bn0, W)",
                                          /*collect_trace=*/false));
  // The same pipelined sustain over the recursive closure, once untraced
  // and once with every query sampled (span trees built, wrapped
  // in net.* spans, and shipped back). The recursive goal is the honest
  // denominator — trace overhead is per-span work amortized over real
  // engine execution; against the wire-only bnpar goal (a ~10 us cached
  // lookup) any tracing at all swamps the query. The pair runs in
  // alternating rounds and each arm keeps its best round: max-qps is the
  // estimator least polluted by unrelated load, and a single back-to-back
  // pair at smoke scale swings tens of percent either way run to run.
  // Calibration: sequential round-trip probes put the true per-query cost
  // at ~10-20 us (one span-tree copy + wire encode + client decode) — a
  // few percent of the ~0.5 ms recursive goal. On single-core CI boxes
  // the sustained number reads higher than that floor because dozens of
  // oversubscribed threads amplify the traced path's extra allocations.
  const std::string traced_goal = "bnanc(bn0, W)";
  WorkloadStats best_untraced;
  WorkloadStats best_traced;
  for (int round = 0; round < kTraceRounds; ++round) {
    WorkloadStats untraced = RunSustainPipelined(
        target, "sustain_untraced", traced_goal, /*collect_trace=*/false);
    WorkloadStats traced = RunSustainPipelined(
        target, "sustain_traced", traced_goal, /*collect_trace=*/true);
    if (untraced.qps > best_untraced.qps) best_untraced = untraced;
    if (traced.qps > best_traced.qps) best_traced = traced;
  }
  workloads.push_back(best_untraced);
  workloads.push_back(best_traced);

  Table table({Text("workload"), Count("conns"), Count("requests"),
               Micros("p50"), Micros("p99"), Micros("max"), Micros("mean"),
               Ratio("qps", 1)});
  // Histogram quantiles are power-of-two bucket upper bounds.
  Table quantiles({Text("workload"), Count("samples"), Micros("p25"),
                   Micros("p75"), Micros("p90"), Micros("p999")},
                  "latency quantiles (bucket upper bounds)");
  for (const WorkloadStats& w : workloads) {
    const metrics::Histogram& h = *w.latency;
    table.Row({w.name, w.connections, w.requests, h.ApproxQuantile(0.5),
               h.ApproxQuantile(0.99), h.max(), h.mean(), w.qps});
    quantiles.Row({w.name, h.count(), h.ApproxQuantile(0.25),
                   h.ApproxQuantile(0.75), h.ApproxQuantile(0.9),
                   h.ApproxQuantile(0.999)});
  }
  report->Add(std::move(table));
  report->Add(std::move(quantiles));

  report->Value(Text("server"),
                ConnectTarget().empty() ? "in-process" : ConnectTarget());
  report->Value(Count("sustain_connections"), SustainConnections());
  report->Value(Count("windows"), Windows());
  report->Value(Count("pipeline_depth"), PipelineDepth());
  report->Value(Count("batch_size"), BatchSize());
  report->Value(Percent("trace_overhead", 2),
                best_untraced.qps / best_traced.qps - 1.0);
  report->Value(Percent("trace_overhead_target", 0), 0.03);
  report->Value(Count("trace_rounds"), kTraceRounds);

  if (own_tb != nullptr) own_server.Stop();
}

}  // namespace dkb::bench
