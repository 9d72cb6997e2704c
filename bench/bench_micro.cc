// Engine micro-benchmarks: the relational primitives the testbed leans on,
// each timed alone — bulk insert, scan, index probe, hash and index joins,
// set difference, SQL parsing (the per-statement overhead of the
// embedded-SQL interface), an INSERT ... SELECT round trip — the WAL's
// two primitives: staging a record (Wal::Append) and making it durable
// (Append + WaitDurable with fdatasync) on a scratch log under /tmp — and
// the instrumentation primitive, one trace::ScopedPhase.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "rdbms/database.h"
#include "sql/parser.h"
#include "storage/wal.h"
#include "workload/data_gen.h"

namespace dkb::bench {
namespace {

/// A database holding the parent relation of a full binary tree of `depth`,
/// indexed on its first column when `indexed`.
std::unique_ptr<Database> MakeParentDb(int depth, bool indexed) {
  auto db = std::make_unique<Database>();
  CheckOk(db->Execute("CREATE TABLE parent (par VARCHAR, child VARCHAR)")
              .status(),
          "CREATE TABLE parent");
  if (indexed) {
    CheckOk(db->Execute("CREATE INDEX par_ix ON parent (par)").status(),
            "CREATE INDEX");
  }
  dkb::Table& rows =
      Unwrap(db->catalog().GetSource("parent"), "parent")->shard(0);
  for (Tuple& t : workload::MakeFullBinaryTrees(1, depth).ToTuples()) {
    rows.InsertUnchecked(std::move(t));
  }
  return db;
}

/// Median time per call of `op`, over batches of `ops` back-to-back calls
/// after one warm-up call (which fills the statement cache and interner).
template <typename F>
double MicrosPerOp(int ops, F&& op) {
  op();
  const int64_t batch = MedianMicros(Reps(5, 1), [&]() {
    WallTimer timer;
    for (int i = 0; i < ops; ++i) op();
    return timer.ElapsedMicros();
  });
  return static_cast<double>(batch) / ops;
}

/// Rows a SELECT returns, aborting the bench on error.
int64_t Rows(Database* db, const std::string& sql) {
  return static_cast<int64_t>(Unwrap(db->QueryRows(sql), "query").size());
}

/// A fresh scratch log, opened with fdatasync on; the caller removes the
/// file once the log has closed.
std::unique_ptr<Wal> OpenScratchWal(const std::string& path,
                                    bool group_commit) {
  std::remove(path.c_str());
  return Unwrap(
      Wal::Open(path, Wal::Options{.fsync = true, .group_commit = group_commit}),
      "Wal::Open");
}

/// Median microseconds of one durable commit of `payload`: Append, then
/// WaitDurable, `appends` times in a row on a fresh scratch log.
double DurableAppendP50(const std::string& path, bool group_commit,
                        int appends, const std::string& payload) {
  std::unique_ptr<Wal> wal = OpenScratchWal(path, group_commit);
  std::vector<int64_t> nanos;
  nanos.reserve(appends);
  for (int i = 0; i < appends; ++i) {
    WallTimer timer;
    const uint64_t lsn =
        Unwrap(wal->Append(WalRecordKind::kAddFacts, payload), "Wal::Append");
    CheckOk(wal->WaitDurable(lsn), "Wal::WaitDurable");
    nanos.push_back(timer.ElapsedNanos());
  }
  wal.reset();
  std::remove(path.c_str());
  std::nth_element(nanos.begin(), nanos.begin() + appends / 2, nanos.end());
  return static_cast<double>(nanos[appends / 2]) / 1000.0;
}

}  // namespace

void Micro(Report* report) {
  report->Banner("Engine micro-benchmarks - relational primitives",
                 "SIGMOD'88 D/KB testbed, the DBMS interface of the design "
                 "discussion (embedded-SQL statement overhead)",
                 "per-statement costs of a few us; joins scale with the "
                 "tree, and an index nested-loop join beats the hash join; "
                 "a durable WAL append costs one fdatasync");

  Table table({Text("case"), Text("input"), Count("rows_per_op"),
               Micros("per_op", 3), Ratio("m_rows_per_s", 1)});
  auto row = [&table](const std::string& name, const std::string& input,
                      int64_t rows, double per_op_us) {
    table.Row({name, input, rows, per_op_us,
               static_cast<double>(rows) / per_op_us});
  };
  const std::string tree = "tree depth ";

  // Bulk insert: one op appends one row to a fresh table.
  for (int n : Sweep({1000, 10000}, 1)) {
    const int64_t us = MedianMicros(Reps(5, 1), [n]() {
      Database db;
      CheckOk(db.Execute("CREATE TABLE t (a VARCHAR, b VARCHAR)").status(),
              "CREATE TABLE t");
      dkb::Table& t = Unwrap(db.catalog().GetSource("t"), "t")->shard(0);
      WallTimer timer;
      for (int i = 0; i < n; ++i) {
        t.InsertUnchecked({Value("k" + std::to_string(i)), Value("v")});
      }
      return timer.ElapsedMicros();
    });
    row("insert", std::to_string(n) + " rows", 1,
        static_cast<double>(us) / n);
  }

  const int depth = SmokeSize(11, 5);
  {
    auto db = MakeParentDb(depth, /*indexed=*/false);
    const std::string sql = "SELECT COUNT(*) FROM parent";
    const int64_t rows = Unwrap(db->QueryCount(sql), "COUNT(*)");
    row("seq_scan_count", tree + std::to_string(depth), rows,
        MicrosPerOp(Reps(500, 2), [&]() { Rows(db.get(), sql); }));
  }
  {
    auto db = MakeParentDb(depth, /*indexed=*/true);
    const std::string sql = "SELECT * FROM parent WHERE par = '" +
                            workload::TreeNodeName(0, SmokeSize(77, 1)) +
                            "'";
    row("index_probe", tree + std::to_string(depth), Rows(db.get(), sql),
        MicrosPerOp(Reps(5000, 2), [&]() { Rows(db.get(), sql); }));
  }
  const std::string self_join =
      "SELECT p1.par, p2.child FROM parent p1, parent p2 "
      "WHERE p1.child = p2.par";
  for (bool indexed : {false, true}) {
    for (int d : Sweep({8, 10, 12}, 1)) {
      auto db = MakeParentDb(d, indexed);
      row(indexed ? "self_join_indexed" : "self_join_hash",
          tree + std::to_string(d), Rows(db.get(), self_join),
          MicrosPerOp(Reps(20, 2), [&]() { Rows(db.get(), self_join); }));
    }
  }
  {
    auto db = MakeParentDb(depth, /*indexed=*/false);
    CheckOk(db->ExecuteAll("CREATE TABLE half (par VARCHAR, child VARCHAR);"
                           "INSERT INTO half SELECT * FROM parent "
                           "WHERE par < 't0_4'"),
            "half");
    const std::string sql =
        "(SELECT * FROM parent) EXCEPT (SELECT * FROM half)";
    row("except", tree + std::to_string(depth), Rows(db.get(), sql),
        MicrosPerOp(Reps(20, 2), [&]() { Rows(db.get(), sql); }));
  }
  {
    const std::string sql =
        "SELECT DISTINCT r0.c0, r1.c1 FROM edb_parent r0, idb_anc r1 "
        "WHERE r1.c0 = r0.c1 AND r0.c0 = 'john'";
    row("parse_select", "one join", 0, MicrosPerOp(Reps(5000, 2), [&]() {
          Unwrap(sql::ParseStatement(sql), "parse");
        }));
  }
  {
    const int d = SmokeSize(10, 5);
    auto db = MakeParentDb(d, /*indexed=*/false);
    CheckOk(db->Execute("CREATE TABLE sink (par VARCHAR, child VARCHAR)")
                .status(),
            "CREATE TABLE sink");
    int64_t copied = 0;
    const double us = MicrosPerOp(Reps(50, 2), [&]() {
      CheckOk(db->Execute("DELETE FROM sink").status(), "DELETE");
      copied = Unwrap(db->Execute("INSERT INTO sink SELECT * FROM parent"),
                      "INSERT SELECT")
                   .rows_affected;
    });
    row("insert_select_round_trip", tree + std::to_string(d), copied, us);
  }
  {
    // A 230-byte record, the size of a one-row fact commit's frame.
    const std::string payload(213, 'x');
    const std::string path =
        "/tmp/dkb_bench_micro_" + std::to_string(::getpid()) + ".wal";
    std::unique_ptr<Wal> wal = OpenScratchWal(path, /*group_commit=*/true);
    const int ops = Reps(2000, 20);
    const int64_t batch = MedianMicros(Reps(5, 1), [&]() {
      uint64_t lsn = 0;
      WallTimer timer;
      for (int i = 0; i < ops; ++i) {
        lsn = Unwrap(wal->Append(WalRecordKind::kAddFacts, payload),
                     "Wal::Append");
      }
      const int64_t us = timer.ElapsedMicros();
      CheckOk(wal->WaitDurable(lsn), "Wal::WaitDurable");
      return us;
    });
    wal.reset();
    std::remove(path.c_str());
    row("wal_append", "230 B, group commit", 1,
        static_cast<double>(batch) / ops);
    const int appends = Reps(3000, 20);
    for (bool group_commit : {false, true}) {
      row("wal_durable_append",
          group_commit ? "230 B, group commit" : "230 B, direct", 1,
          DurableAppendP50(path, group_commit, appends, payload));
    }
  }
  {
    // One phase scope with a bucket only, the path every statement of every
    // LFP iteration takes (EvalContext::Rhs), and with a bucket and a span
    // under a live trace, each batch on a fresh context.
    int64_t bucket_ns = 0;
    row("phase_scope", "bucket", 1, MicrosPerOp(Reps(1000000, 100), [&]() {
          trace::ScopedPhase phase(&bucket_ns);
        }));
    const int spans = Reps(20000, 20);
    const int64_t batch = MedianMicros(Reps(5, 1), [&]() {
      trace::TraceContext ctx("phase_scope");
      WallTimer timer;
      for (int i = 0; i < spans; ++i) {
        trace::ScopedPhase phase(ctx.root(), "scope", &bucket_ns);
      }
      return timer.ElapsedMicros();
    });
    row("phase_scope", "bucket + span, traced", 1,
        static_cast<double>(batch) / spans);
  }
  report->Add(std::move(table));
}

}  // namespace dkb::bench
