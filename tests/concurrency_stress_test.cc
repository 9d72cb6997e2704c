// Multi-threaded stress tests for the shared observability components: the
// FlightRecorder ring (concurrent recording sessions vs sys.query_log
// readers across ring eviction) and the QueryCache (mixed lookups, inserts,
// and invalidation). Intended to run under ThreadSanitizer in CI; the
// assertions are deliberately about invariants that survive any
// interleaving, not about specific schedules.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "testbed/flight_recorder.h"
#include "testbed/query_cache.h"
#include "testbed/session.h"
#include "testbed/testbed.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

// ---------------------------------------------------------------------------
// FlightRecorder hammer: writers push entries through a tiny ring (so every
// record evicts) while readers snapshot it and a sys.query_log reader runs
// real SQL against the live testbed recorder.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStressTest, FlightRecorderWritersVsSnapshotReaders) {
  constexpr int kWriters = 4;
  constexpr int kEntriesPerWriter = 400;
  FlightRecorder recorder(/*capacity=*/8);  // tiny: every Record evicts

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kEntriesPerWriter; ++i) {
        QueryLogEntry entry;
        entry.query_id = recorder.NextQueryId();
        entry.session_id = w + 1;
        entry.query = "hammer(" + std::to_string(i) + ")";
        entry.total_us = i;
        recorder.Record(std::move(entry));
      }
    });
  }

  // Concurrent readers: snapshots must always be internally consistent.
  // The bound is the resizer's maximum (the live capacity() can shrink
  // between our Snapshot and the comparison), and ids are distinct and in
  // range but NOT necessarily sorted — writers may record out of id order.
  static constexpr size_t kMaxCapacity = 16;
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&recorder, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<QueryLogEntry> snap = recorder.Snapshot();
        EXPECT_LE(snap.size(), kMaxCapacity);
        std::set<int64_t> ids;
        for (const QueryLogEntry& entry : snap) {
          EXPECT_GT(entry.query_id, 0);
          EXPECT_LE(entry.query_id,
                    static_cast<int64_t>(kWriters) * kEntriesPerWriter);
          ids.insert(entry.query_id);
        }
        EXPECT_EQ(ids.size(), snap.size());  // every id appears once
      }
    });
  }
  // One thread resizes the ring while everyone else runs, crossing the
  // eviction path from both ends.
  std::thread resizer([&recorder, &stop] {
    size_t cap = 1;
    while (!stop.load(std::memory_order_acquire)) {
      recorder.SetCapacity(cap);
      cap = cap % kMaxCapacity + 1;
    }
  });

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  resizer.join();

  std::vector<QueryLogEntry> final_snap = recorder.Snapshot();
  EXPECT_LE(final_snap.size(), recorder.capacity());
  EXPECT_FALSE(final_snap.empty());
}

TEST(ConcurrencyStressTest, QueryLogReadersDuringConcurrentSessionQueries) {
  auto tb = Testbed::Create();
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  Testbed& testbed = **tb;
  // Keep the ring small so session queries continuously evict while the
  // sys.query_log scan walks a snapshot of it.
  testbed.recorder().SetCapacity(4);
  ASSERT_TRUE(testbed
                  .Consult(workload::AncestorRules() +
                           "parent(john, mary).\n"
                           "parent(mary, sue).\n"
                           "parent(sue, tim).\n")
                  .ok());

  constexpr int kSessions = 3;
  constexpr int kQueriesPerSession = 25;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    auto session = testbed.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(*session));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    Session* session = sessions[i].get();
    threads.emplace_back([session, &failures] {
      for (int q = 0; q < kQueriesPerSession; ++q) {
        auto outcome = session->Query("ancestor(john, W)");
        if (!outcome.ok() || outcome->result.rows.size() != 3u) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The sys.query_log view reads the same ring the sessions recorded into.
  auto count = testbed.db().QueryCount("SELECT COUNT(*) FROM sys.query_log");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_GT(*count, 0);
  EXPECT_LE(*count, 4);
}

// ---------------------------------------------------------------------------
// Precompiled query forms: two sessions and the testbed itself run one form
// with different constants, each on the program instance checked out of its
// own cache, while a writer commits facts (every commit re-pins the
// sessions, so their instances are rebuilt on new Databases). Every answer
// is checked against the chain oracle.
// ---------------------------------------------------------------------------

std::string ChainNode(int k, int j) {
  return "c" + std::to_string(k) + "_" + std::to_string(j);
}

std::vector<Tuple> ChainFacts(int k) {
  std::vector<Tuple> rows;
  for (int j = 0; j < 3; ++j) {
    rows.push_back({Value(ChainNode(k, j)), Value(ChainNode(k, j + 1))});
  }
  return rows;
}

TEST(ConcurrencyStressTest, PrecompiledFormInstancesUnderConcurrentWrites) {
  auto tb = Testbed::Create();
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  Testbed& testbed = **tb;
  ASSERT_TRUE(testbed.Consult(workload::AncestorRules()).ok());
  ASSERT_TRUE(
      testbed.DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  constexpr int kInitialChains = 4;
  constexpr int kCommits = 20;
  constexpr int kQueriesPerThread = 40;
  for (int k = 0; k < kInitialChains; ++k) {
    ASSERT_TRUE(testbed.AddFacts("parent", ChainFacts(k)).ok());
  }
  std::atomic<int> committed{kInitialChains};

  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < 2; ++i) {
    auto session = testbed.OpenSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    sessions.push_back(std::move(*session));
  }

  const QueryOptions opts = QueryOptions::Magic().WithCache();
  std::atomic<int> failures{0};
  auto check = [&failures](const Result<QueryOutcome>& outcome, int k) {
    std::set<std::string> got;
    if (outcome.ok()) {
      for (const Tuple& row : outcome->result.rows) {
        got.insert(row[0].as_string());
      }
    }
    const std::set<std::string> want = {ChainNode(k, 1), ChainNode(k, 2),
                                        ChainNode(k, 3)};
    if (got != want) failures.fetch_add(1, std::memory_order_relaxed);
  };
  // Thread t asks for chain (q * 3 + t) mod the chains committed so far.
  auto goal_of = [&committed](int t, int q) {
    const int k = (q * 3 + t) % committed.load(std::memory_order_acquire);
    return std::make_pair(k, "ancestor(" + ChainNode(k, 0) + ", W)");
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    Session* session = sessions[t].get();
    threads.emplace_back([&, session, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        auto [k, goal] = goal_of(t, q);
        check(session->Query(goal, opts), k);
      }
    });
  }
  threads.emplace_back([&] {
    for (int q = 0; q < kQueriesPerThread; ++q) {
      auto [k, goal] = goal_of(2, q);
      check(testbed.Query(goal, opts), k);
    }
  });
  threads.emplace_back([&] {
    for (int c = 0; c < kCommits; ++c) {
      const int k = committed.load(std::memory_order_acquire);
      if (!testbed.AddFacts("parent", ChainFacts(k)).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      committed.store(k + 1, std::memory_order_release);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& session : sessions) {
    EXPECT_GT(session->query_cache().stats().hits, 0);
  }
  EXPECT_GT(testbed.query_cache().stats().hits, 0);
}

// ---------------------------------------------------------------------------
// QueryCache: mixed readers and writers with a concurrent invalidator. The
// shared_ptr Lookup contract is the point — a hit obtained just before an
// InvalidateOn/Clear must stay a valid program afterwards.
// ---------------------------------------------------------------------------

km::CompiledQuery MakeCompiled(const std::string& marker) {
  km::CompiledQuery compiled;
  compiled.original_query.predicate = marker;
  return compiled;
}

TEST(ConcurrencyStressTest, QueryCacheMixedReadersWritersInvalidation) {
  QueryCache cache;
  constexpr int kKeys = 8;
  constexpr int kOpsPerThread = 500;

  auto key_of = [](int i) { return "k" + std::to_string(i % kKeys); };
  auto dep_of = [](int i) { return "p" + std::to_string(i % kKeys); };

  std::vector<std::thread> threads;
  // Writers keep every key populated.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&cache, &key_of, &dep_of, w] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = i + w;
        cache.Insert(key_of(k), MakeCompiled(dep_of(k)), {dep_of(k)});
      }
    });
  }
  // Readers verify that every hit is a complete, self-consistent program
  // regardless of concurrent invalidation.
  std::atomic<int> bad_hits{0};
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&cache, &key_of, &dep_of, &bad_hits] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::shared_ptr<const km::CompiledQuery> hit = cache.Lookup(key_of(i));
        if (hit != nullptr &&
            hit->original_query.predicate != dep_of(i)) {
          bad_hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // The invalidator sweeps dependencies round-robin.
  threads.emplace_back([&cache, &dep_of] {
    for (int i = 0; i < kOpsPerThread; ++i) {
      cache.InvalidateOn({dep_of(i)});
      if (i % 64 == 0) cache.Clear();
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad_hits.load(), 0);
  const QueryCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0);
  EXPECT_GE(stats.invalidated, 0);
  EXPECT_LE(cache.size(), static_cast<size_t>(kKeys));
}

}  // namespace
}  // namespace dkb::testbed
