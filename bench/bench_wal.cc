// Durability & MVCC bench: what the WAL costs and what epoch sessions buy.
//
// Part 1 — commit latency: one-row AddFacts through four durability
// configurations (no WAL; WAL with group-commit fsync; WAL with per-commit
// fsync; WAL without fsync). The fsync rows measure the physical floor of
// a durable commit; the no-WAL row is the in-memory baseline.
//
// Part 2 — session open: OpenSession + first query against a small and a
// ~50x larger database. Epoch-pinned sessions are O(metadata), so the two
// columns should be close; before this design the open cloned the whole
// database and scaled with its size.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench_setup.h"
#include "testbed/session.h"

namespace dkb::bench {
namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deletes a scratch wal_dir and everything in it, if it exists.
void RemoveWalDir(const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

/// A scratch wal_dir wiped of any previous run's log and checkpoint. The
/// caller removes it once the testbed using it has closed.
std::string FreshWalDir(const std::string& tag) {
  std::string dir = "/tmp/dkb_bench_wal_" + tag + "_" +
                    std::to_string(static_cast<long long>(::getpid()));
  RemoveWalDir(dir);
  return dir;
}

std::unique_ptr<testbed::Testbed> MakeWriteTarget(
    const testbed::TestbedOptions& base) {
  auto tb = Unwrap(testbed::Testbed::Create(base), "Testbed::Create");
  CheckOk(tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar}),
          "DefineBase");
  return tb;
}

void RunCommitLatency(Report* report) {
  struct Config {
    const char* name;
    bool wal;
    bool fsync;
    bool group_commit;
  };
  const Config kConfigs[] = {
      {"no_wal", false, false, false},
      {"wal_group_commit", true, true, true},
      {"wal_fsync_each", true, true, false},
      {"wal_no_fsync", true, false, false},
  };
  const int kReps = Reps(200, 10);

  Table table({Text("config"), Micros("commit_p50"), Count("commits")});
  for (const Config& cfg : kConfigs) {
    testbed::TestbedOptions options;
    std::string wal_dir;
    if (cfg.wal) {
      wal_dir = FreshWalDir(cfg.name);
      options.WithWalDir(wal_dir)
          .WithWalFsync(cfg.fsync)
          .WithWalGroupCommit(cfg.group_commit);
    }
    auto tb = MakeWriteTarget(options);
    int seq = 0;
    int64_t p50 = MedianMicros(kReps, [&]() {
      std::string who = "n" + std::to_string(seq++);
      int64_t start = NowUs();
      CheckOk(tb->AddFacts("parent", {{Value(who), Value("c")}}), "AddFacts");
      return NowUs() - start;
    });
    tb.reset();  // closes the WAL before its directory goes
    if (!wal_dir.empty()) RemoveWalDir(wal_dir);
    table.Row({cfg.name, p50, kReps});
  }
  report->Add(std::move(table));
}

void RunSessionOpen(Report* report) {
  const int kSmallDepth = 6;                    // 62 edges
  const int kBigDepth = SmokeSize(12, 7);       // 4094 edges full-size
  const int kReps = Reps(25, 5);

  auto small = MakeAncestorTree(kSmallDepth);
  auto big = MakeAncestorTree(kBigDepth);

  auto open_cost = [&](testbed::Testbed* tb) {
    return MedianMicros(kReps, [&]() {
      int64_t start = NowUs();
      auto session = Unwrap(tb->OpenSession(), "OpenSession");
      Unwrap(session->Query(TreeAncestorGoal(0),
                            testbed::QueryOptions::SemiNaive()),
             "session query");
      return NowUs() - start;
    });
  };
  // Queries scale with data, so time the open (pin + metadata restore)
  // separately from open+query.
  auto open_only_cost = [&](testbed::Testbed* tb) {
    return MedianMicros(kReps, [&]() {
      int64_t start = NowUs();
      auto session = Unwrap(tb->OpenSession(), "OpenSession");
      (void)session;
      return NowUs() - start;
    });
  };

  int64_t small_open = open_only_cost(small.get());
  int64_t big_open = open_only_cost(big.get());
  int64_t small_oq = open_cost(small.get());
  int64_t big_oq = open_cost(big.get());

  const int small_edges = (1 << kSmallDepth) - 2;
  const int big_edges = (1 << kBigDepth) - 2;
  Table table({Text("database"), Count("edges"), Micros("open_p50"),
               Micros("open_plus_query")});
  table.Row({"small", small_edges, small_open, small_oq});
  table.Row({"big", big_edges, big_open, big_oq});
  report->Add(std::move(table));
  // O(1) open reads ~1.0; an O(database) open would track the data ratio.
  report->Value(Ratio("open_ratio"),
                static_cast<double>(big_open) / small_open);
  report->Value(Ratio("data_ratio", 0),
                static_cast<double>(big_edges) / small_edges);
}

}  // namespace

void Wal(Report* report) {
  report->Banner("WAL & MVCC - durable commit latency and epoch session open",
                 "durability extension to the SIGMOD'88 testbed: WAL group "
                 "commit, columnar checkpoints, epoch-pinned sessions",
                 "group commit amortizes the fsync floor across writers; "
                 "session open is O(metadata), independent of database size");
  RunCommitLatency(report);
  RunSessionOpen(report);
}

}  // namespace dkb::bench
