#include "testbed/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = Testbed::Create();
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    tb_ = std::move(*tb);
    Status s = tb_->Consult(workload::AncestorRules() +
                            "parent(john, mary).\n"
                            "parent(mary, sue).\n"
                            "parent(sue, tim).\n");
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(SessionTest, SessionAgreesWithDirectQuery) {
  auto direct = tb_->Query("ancestor(john, W)");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  auto session = tb_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto via_session = (*session)->Query("ancestor(john, W)");
  ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();

  EXPECT_EQ(AnswerSet(direct->result), AnswerSet(via_session->result));
  EXPECT_EQ(via_session->result.rows.size(), 3u);
}

// A base table named like the query's IDB relation is an ordinary user
// table: the session's run keeps its own idb_ancestor and never tries to
// create or drop one in the overlay.
TEST_F(SessionTest, QueriesWhileBaseHasTableOfAnLfpName) {
  ASSERT_TRUE(
      tb_->ExecuteSql("CREATE TABLE idb_ancestor (c0 VARCHAR, c1 VARCHAR)")
          .ok());
  ASSERT_TRUE(
      tb_->ExecuteSql("INSERT INTO idb_ancestor VALUES ('x', 'y')").ok());
  auto session = tb_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto outcome = (*session)->Query("ancestor(john, W)");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(AnswerSet(outcome->result),
            (std::set<std::string>{"mary|", "sue|", "tim|"}));
  auto rows = tb_->ExecuteSql("SELECT * FROM idb_ancestor");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST_F(SessionTest, ConcurrentSessionsAgreeWithSerial) {
  auto serial = tb_->Query("ancestor(john, W)");
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::set<std::string> expected = AnswerSet(serial->result);

  constexpr int kThreads = 4;
  constexpr int kReps = 8;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int t = 0; t < kThreads; ++t) {
    auto s = tb_->OpenSession();
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    sessions.push_back(std::move(*s));
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kReps; ++i) {
        auto r = sessions[t]->Query("ancestor(john, W)");
        if (!r.ok() || AnswerSet(r->result) != expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(SessionTest, SnapshotIsolationUntilRefresh) {
  auto session = tb_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto before = (*session)->Query("ancestor(john, W)");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->result.rows.size(), 3u);
  uint64_t epoch_before = (*session)->epoch();

  // A write through the testbed bumps the epoch; the next session query
  // refreshes its snapshot and sees the new fact.
  Status s = tb_->AddFacts("parent", {{Value("tim"), Value("una")}});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(tb_->epoch(), epoch_before);

  auto after = (*session)->Query("ancestor(john, W)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->result.rows.size(), 4u);
  EXPECT_GT((*session)->epoch(), epoch_before);
}

TEST_F(SessionTest, RuleEditsInvalidateSessionCache) {
  auto session = tb_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  QueryOptions cached = QueryOptions::SemiNaive().WithCache();

  auto first = (*session)->Query("ancestor(john, W)", cached);
  ASSERT_TRUE(first.ok());
  auto second = (*session)->Query("ancestor(john, W)", cached);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->report.from_cache);

  // A rule edit moves the epoch; the session must recompile, not reuse the
  // stale program.
  Status s = tb_->AddRule("ancestor(X, X) :- parent(X, Y).");
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto third = (*session)->Query("ancestor(john, W)", cached);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_FALSE(third->report.from_cache);
  EXPECT_EQ(third->result.rows.size(), 4u);  // john himself now included
}

TEST_F(SessionTest, SessionCacheSurvivesFactCommits) {
  auto session = tb_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  QueryOptions cached = QueryOptions::Magic().WithCache();
  ASSERT_TRUE((*session)->Query("ancestor(sue, W)", cached).ok());
  auto hit = (*session)->Query("ancestor(sue, W)", cached);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->report.from_cache);

  // Another writer commits a fact: the pin moves, the programs stay, and
  // the next hit reads the new fact.
  const uint64_t epoch_before = (*session)->epoch();
  ASSERT_TRUE(tb_->AddFacts("parent", {{Value("tim"), Value("ann")}}).ok());
  auto after = (*session)->Query("ancestor(sue, W)", cached);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT((*session)->epoch(), epoch_before);
  EXPECT_TRUE(after->report.from_cache);
  EXPECT_EQ(AnswerSet(after->result),
            (std::set<std::string>{"tim|", "ann|"}));
  EXPECT_EQ((*session)->query_cache().stats().misses, 1);
}

TEST_F(SessionTest, WriterSerializesAgainstConcurrentReaders) {
  constexpr int kThreads = 3;
  constexpr int kReps = 6;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int t = 0; t < kThreads; ++t) {
    auto s = tb_->OpenSession();
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    sessions.push_back(std::move(*s));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kReps; ++i) {
        auto r = sessions[t]->Query("ancestor(john, W)");
        // Readers see either the pre- or post-write snapshot, never a
        // partial one: 3 or 3+i new facts, all reachable from john.
        if (!r.ok() || r->result.rows.size() < 3u) failures.fetch_add(1);
      }
    });
  }
  // Writer thread interleaves fact loads; each is serialized against the
  // session clones by the testbed's reader-writer lock.
  std::thread writer([&]() {
    for (int i = 0; i < 4; ++i) {
      std::string child = "extra" + std::to_string(i);
      std::string parent = i == 0 ? "tim" : "extra" + std::to_string(i - 1);
      Status s = tb_->AddFacts("parent", {{Value(parent), Value(child)}});
      if (!s.ok()) failures.fetch_add(1);
    }
  });
  for (auto& th : threads) th.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);

  // After all writes land, every session converges on the final answer.
  for (auto& session : sessions) {
    auto r = session->Query("ancestor(john, W)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->result.rows.size(), 7u);
  }
}

TEST_F(SessionTest, RepeatedQueriesReuseSnapshot) {
  auto session = tb_->OpenSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)->Query("ancestor(john, W)").ok());
  uint64_t epoch = (*session)->epoch();
  ASSERT_TRUE((*session)->Query("ancestor(mary, W)").ok());
  EXPECT_EQ((*session)->epoch(), epoch) << "snapshot re-cloned needlessly";
}

}  // namespace
}  // namespace dkb::testbed
