// Differential oracle for incremental Stored-DKB updates (paper §4.3).
//
// A seeded generator commits random rule sequences one update at a time:
// linear and mutual recursion, new rules for existing heads, rules over
// derived predicates, fresh heads over a derived predicate that has its own
// upstream, duplicates, and ill-typed updates. After every update the
// dictionary relations must equal those of a fresh testbed that commits
// every rule accepted so far in one update: reachablepreds, idbrel and
// idbcol as multisets, rulesource by rule text. A rejected update must
// leave every dictionary table unchanged and write no WAL record. The same
// holds after the WAL directory is reopened, with a checkpoint cut midway
// through the sequence.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "testbed/testbed.h"

namespace dkb::testbed {
namespace {

using Rows = std::multiset<std::string>;
using DictState = std::map<std::string, Rows>;

/// Each dictionary relation, read so that the rule ids a commit order
/// assigns do not count.
const std::map<std::string, std::string>& DictionaryQueries() {
  static const std::map<std::string, std::string> queries = {
      {"idbrel", "SELECT * FROM idbrel"},
      {"idbcol", "SELECT * FROM idbcol"},
      {"reachablepreds", "SELECT * FROM reachablepreds"},
      {"rulesource", "SELECT headpredname, ruletext FROM rulesource"},
      {"edbrel", "SELECT * FROM edbrel"},
      {"edbcol", "SELECT * FROM edbcol"}};
  return queries;
}

DictState Snapshot(Testbed* tb) {
  DictState state;
  for (const auto& [table, sql] : DictionaryQueries()) {
    auto result = tb->ExecuteSql(sql);
    if (!result.ok()) {
      state[table] = {"error: " + result.status().ToString()};
      continue;
    }
    Rows& rows = state[table];
    for (const Tuple& row : result->rows) {
      std::string key;
      for (const Value& v : row) key += v.ToString() + "|";
      rows.insert(std::move(key));
    }
  }
  return state;
}

/// sys.wal's last_lsn, rendered.
std::string LastLsn(Testbed* tb) {
  auto result = tb->ExecuteSql("SELECT last_lsn FROM sys.wal");
  if (!result.ok()) return "error: " + result.status().ToString();
  return result->rows.at(0).at(0).ToString();
}

void ExpectSameDictionaries(const DictState& got, const DictState& want) {
  for (const auto& [table, rows] : want) {
    SCOPED_TRACE(table);
    auto it = got.find(table);
    ASSERT_NE(it, got.end());
    EXPECT_EQ(it->second, rows);
  }
}

/// The base predicates every testbed of the oracle starts from: two
/// INTEGER and two VARCHAR edge relations.
constexpr int kTypes = 2;  // 0 = INTEGER, 1 = VARCHAR
const char* const kBase[kTypes][2] = {{"ia", "ib"}, {"va", "vb"}};

Status DefineBases(Testbed* tb) {
  for (int t = 0; t < kTypes; ++t) {
    DataType type = t == 0 ? DataType::kInteger : DataType::kVarchar;
    for (const char* pred : kBase[t]) {
      DKB_RETURN_IF_ERROR(tb->DefineBase(pred, {type, type}));
    }
  }
  return Status::OK();
}

/// One update of the sequence.
struct Update {
  std::string shape;
  std::vector<std::string> rules;
  bool ill_typed = false;
};

/// Seeded rule-sequence generator. Every derived predicate it defines has
/// both columns of one type; a well-typed rule only joins predicates of
/// its head's type.
class RuleSequence {
 public:
  explicit RuleSequence(uint64_t seed) : rng_(seed) {}

  Update Next() {
    Update u;
    const int t = static_cast<int>(rng_.Uniform(0, kTypes - 1));
    switch (rng_.Uniform(0, 9)) {
      case 0:
      case 1: {  // a fresh predicate, linearly recursive
        std::string p = Fresh(t);
        u.shape = "linear";
        u.rules = {p + "(X, Y) :- " + Body(t) + "(X, Y).",
                   p + "(X, Y) :- " + Body(t) + "(X, Z), " + p + "(Z, Y)."};
        break;
      }
      case 2: {  // two fresh predicates, mutually recursive
        std::string p = Fresh(t);
        std::string q = Fresh(t);
        u.shape = "mutual";
        u.rules = {p + "(X, Y) :- " + Body(t) + "(X, Y).",
                   p + "(X, Y) :- " + q + "(X, Z), " + Body(t) + "(Z, Y).",
                   q + "(X, Y) :- " + p + "(X, Y)."};
        break;
      }
      case 3:
      case 4: {  // a new rule for an existing head (may close new cycles)
        if (defined_[t].empty()) return Next();
        u.shape = "existing_head";
        u.rules = {Pick(defined_[t]) + "(X, Y) :- " + Body(t) + "(X, Z), " +
                   Body(t) + "(Z, Y)."};
        break;
      }
      case 5:
      case 6: {  // a fresh head over a derived predicate with its own upstream
        if (defined_[t].empty()) return Next();
        u.shape = "fresh_over_derived";
        u.rules = {Fresh(t) + "(X, Y) :- " + Pick(defined_[t]) + "(X, Z), " +
                   kBase[t][rng_.Uniform(0, 1)] + "(Z, Y)."};
        break;
      }
      case 7: {  // a rule committed before
        if (committed_.empty()) return Next();
        u.shape = "duplicate";
        u.rules = {Pick(committed_)};
        break;
      }
      default:
        u = IllTyped(t);
        break;
    }
    return u;
  }

  /// Records an update the stored DKB accepted.
  void Accept(const Update& u) {
    for (const std::string& rule : u.rules) {
      if (committed_set_.insert(rule).second) committed_.push_back(rule);
      std::string head = rule.substr(0, rule.find('('));
      if (defined_set_.insert(head).second) {
        defined_[type_.at(head)].push_back(head);
      }
    }
  }

  const std::vector<std::string>& committed() const { return committed_; }

 private:
  std::string Fresh(int t) {
    std::string name = (t == 0 ? "n" : "s") + std::to_string(next_++);
    type_[name] = t;
    return name;
  }

  std::string Pick(const std::vector<std::string>& from) {
    return from[static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(from.size()) - 1))];
  }

  /// A base predicate or a defined derived predicate of type `t`.
  std::string Body(int t) {
    if (defined_[t].empty() || rng_.Bernoulli(0.4)) {
      return kBase[t][rng_.Uniform(0, 1)];
    }
    return Pick(defined_[t]);
  }

  Update IllTyped(int t) {
    const int o = 1 - t;
    const std::string other = kBase[o][rng_.Uniform(0, 1)];
    Update u;
    u.ill_typed = true;
    switch (rng_.Uniform(0, 5)) {
      case 0:
        u.shape = "ill_join";
        u.rules = {Fresh(t) + "(X, Y) :- " + Body(t) + "(X, Z), " + other +
                   "(Z, Y)."};
        break;
      case 1:
        if (defined_[t].empty()) return IllTyped(t);
        u.shape = "ill_existing_head";
        u.rules = {Pick(defined_[t]) + "(X, Y) :- " + other + "(X, Y)."};
        break;
      case 2:
        u.shape = "ill_unknown";
        u.rules = {Fresh(t) + "(X, Y) :- " + Body(t) + "(X, Z), nowhere(Z, Y)."};
        break;
      case 3:
        u.shape = "ill_arity";
        u.rules = {Fresh(t) + "(X) :- " + Body(t) + "(X, Y, Z)."};
        break;
      case 4:
        u.shape = "ill_comparison";
        u.rules = {Fresh(t) + "(X, Y) :- " + Body(t) + "(X, Y), X < " +
                   (t == 0 ? "k" : "3") + "."};
        break;
      default: {
        u.shape = "ill_untyped";
        std::string p = Fresh(t);
        u.rules = {p + "(X, Y) :- " + p + "(Y, X)."};
        break;
      }
    }
    // Half the rejected updates also carry a valid rule, which must not be
    // stored either.
    if (rng_.Bernoulli(0.5)) {
      u.rules.insert(u.rules.begin(),
                     Fresh(t) + "(X, Y) :- " + Body(t) + "(X, Y).");
    }
    return u;
  }

  Rng rng_;
  int next_ = 0;
  std::map<std::string, int> type_;
  std::vector<std::string> defined_[kTypes];
  std::set<std::string> defined_set_;
  std::vector<std::string> committed_;
  std::set<std::string> committed_set_;
};

/// The dictionaries of a fresh testbed that commits `rules` in one update.
DictState Rebuild(const std::vector<std::string>& rules) {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  if (!tb.ok()) return {};
  EXPECT_TRUE(DefineBases(tb->get()).ok());
  for (const std::string& rule : rules) {
    Status added = (*tb)->AddRule(rule);
    EXPECT_TRUE(added.ok()) << rule << ": " << added.ToString();
  }
  auto stats = (*tb)->UpdateStoredDkb();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return Snapshot(tb->get());
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::remove((dir + "/dkb.wal").c_str());
  std::remove((dir + "/dkb.ckpt").c_str());
  ::rmdir(dir.c_str());
  return dir;
}

std::unique_ptr<Testbed> Open(const std::string& dir) {
  auto tb = Testbed::Create(
      TestbedOptions{}.WithWalDir(dir).WithWalFsync(false));
  EXPECT_TRUE(tb.ok()) << tb.status().ToString();
  return tb.ok() ? std::move(*tb) : nullptr;
}

class RuleUpdateOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuleUpdateOracleTest, IncrementalUpdatesMatchOneUpdateFromScratch) {
  constexpr int kSteps = 64;
  const uint64_t seed = GetParam();
  const std::string dir = FreshDir("rule_update_oracle_" +
                                   std::to_string(seed));
  RuleSequence sequence(seed);
  std::unique_ptr<Testbed> live = Open(dir);
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(DefineBases(live.get()).ok());
  std::map<std::string, int> shapes;
  for (int step = 1; step <= kSteps; ++step) {
    Update u = sequence.Next();
    ++shapes[u.shape];
    std::string trace = "seed " + std::to_string(seed) + " step " +
                        std::to_string(step) + " (" + u.shape + "):";
    for (const std::string& rule : u.rules) trace += " " + rule;
    SCOPED_TRACE(trace);

    const DictState before = Snapshot(live.get());
    for (const std::string& rule : u.rules) {
      ASSERT_TRUE(live->AddRule(rule).ok()) << rule;
    }
    const std::string lsn_before = LastLsn(live.get());
    auto stats = live->UpdateStoredDkb();
    const std::string lsn_after = LastLsn(live.get());
    ASSERT_TRUE(live->ClearWorkspace().ok());
    if (u.ill_typed) {
      EXPECT_FALSE(stats.ok());
      ExpectSameDictionaries(Snapshot(live.get()), before);
      // A rejected update is not logged.
      EXPECT_EQ(lsn_after, lsn_before);
    } else {
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      sequence.Accept(u);
    }
    const DictState want = Rebuild(sequence.committed());
    ExpectSameDictionaries(Snapshot(live.get()), want);

    if (step == kSteps / 2) {
      ASSERT_TRUE(live->Checkpoint().ok());
    }
    if (step == kSteps * 3 / 4 || step == kSteps) {
      // Recover from the checkpoint plus the WAL tail; later updates run
      // on the recovered testbed.
      live.reset();
      live = Open(dir);
      ASSERT_NE(live, nullptr);
      SCOPED_TRACE("after reopening the WAL directory");
      ExpectSameDictionaries(Snapshot(live.get()), want);
    }
  }
  // The sequence exercised every shape it is meant to cover.
  for (const char* shape : {"linear", "existing_head", "fresh_over_derived"}) {
    EXPECT_GT(shapes[shape], 0) << shape;
  }
  EXPECT_GT(sequence.committed().size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleUpdateOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace dkb::testbed
