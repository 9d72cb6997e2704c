// Crash recovery: a child process applies a workload through a WAL-enabled
// testbed and dies by SIGKILL; the parent recovers from the surviving
// wal_dir and must answer every query exactly like an in-memory oracle that
// applied the same operations without crashing.
//
// Every operation below returns only after its redo record is durable
// (check, log, apply, then a group-commit fsync), so "the child finished the
// workload and then was killed" implies "recovery reproduces the workload".

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "storage/codec.h"
#include "testbed/testbed.h"
#include "workload/data_gen.h"
#include "workload/queries.h"

namespace dkb::testbed {
namespace {

/// A private empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::remove((dir + "/dkb.wal").c_str());
  std::remove((dir + "/dkb.ckpt").c_str());
  ::rmdir(dir.c_str());
  return dir;
}

std::set<std::string> AnswerSet(const QueryResult& result) {
  std::set<std::string> out;
  for (const Tuple& row : result.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.insert(key);
  }
  return out;
}

/// Phase 1 exercises Consult, DefineBase, AddFacts, UpdateStoredDkb, and
/// AddRule; phase 2 adds RetractRule, more AddFacts, and raw SQL — together
/// they cover every WalRecordKind except kClearWorkspace (tested
/// separately).
Status ApplyPhase1(Testbed* tb) {
  workload::EdgeSet edges = workload::MakeFullBinaryTrees(1, 5);
  DKB_RETURN_IF_ERROR(tb->Consult(workload::AncestorRules()));
  DKB_RETURN_IF_ERROR(
      tb->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar}));
  DKB_RETURN_IF_ERROR(tb->AddFacts("parent", edges.ToTuples()));
  DKB_RETURN_IF_ERROR(tb->UpdateStoredDkb().status());
  DKB_RETURN_IF_ERROR(tb->AddRule("self(X) :- parent(X, Y)."));
  return Status::OK();
}

Status ApplyPhase2(Testbed* tb) {
  DKB_RETURN_IF_ERROR(tb->RetractRule("self(X) :- parent(X, Y)."));
  std::vector<Tuple> extra;
  for (int i = 0; i < 10; ++i) {
    extra.push_back({Value(workload::TreeNodeName(0, 30)),
                     Value("extra" + std::to_string(i))});
  }
  DKB_RETURN_IF_ERROR(tb->AddFacts("parent", extra));
  DKB_RETURN_IF_ERROR(
      tb->ExecuteSql("CREATE TABLE audit (who VARCHAR, n INTEGER)").status());
  DKB_RETURN_IF_ERROR(
      tb->ExecuteSql("INSERT INTO audit VALUES ('alice', 1), ('bob', 2)")
          .status());
  return Status::OK();
}

/// Queries whose sorted answers define "the same state" for the oracle diff.
std::vector<std::set<std::string>> StateFingerprint(Testbed* tb) {
  std::vector<std::set<std::string>> out;
  std::string root = workload::TreeNodeName(0, 0);
  auto q1 = tb->Query("ancestor('" + root + "', W)");
  EXPECT_TRUE(q1.ok()) << q1.status().ToString();
  out.push_back(q1.ok() ? AnswerSet(q1->result) : std::set<std::string>{});
  auto q2 = tb->ExecuteSql("SELECT who, n FROM audit");
  out.push_back(q2.ok() ? AnswerSet(*q2) : std::set<std::string>{});
  std::vector<std::string> rules = tb->ListRuleTexts();
  out.emplace_back(rules.begin(), rules.end());
  return out;
}

/// Forks; the child runs `work` against a WAL-enabled testbed in `dir` and
/// kills itself with SIGKILL the instant the workload returns OK (exit 3 on
/// any failure). Returns true iff the child died by SIGKILL.
bool RunChildAndKill(const std::string& dir,
                     const std::function<Status(Testbed*)>& work) {
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    auto tb = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
    if (!tb.ok()) _exit(2);
    Status s = work(tb->get());
    if (!s.ok()) _exit(3);
    // No destructors, no flushes beyond what each op already waited for:
    // the process vanishes exactly as in a power cut.
    ::raise(SIGKILL);
    _exit(4);  // unreachable
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  EXPECT_TRUE(WIFSIGNALED(status))
      << "child exited with code "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

TEST(RecoveryTest, Kill9RecoveryMatchesOracle) {
  std::string dir = FreshDir("recovery_kill9");
  ASSERT_TRUE(RunChildAndKill(dir, [](Testbed* tb) {
    DKB_RETURN_IF_ERROR(ApplyPhase1(tb));
    return ApplyPhase2(tb);
  }));

  // Recovery: same wal_dir, no checkpoint was ever written, so the entire
  // state is rebuilt from the WAL.
  auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // Oracle: the identical operations applied in-memory, no crash.
  auto oracle = Testbed::Create();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(ApplyPhase1(oracle->get()).ok());
  ASSERT_TRUE(ApplyPhase2(oracle->get()).ok());

  EXPECT_EQ(StateFingerprint(recovered->get()),
            StateFingerprint(oracle->get()));
}

TEST(RecoveryTest, CheckpointThenMoreWritesThenKill) {
  std::string dir = FreshDir("recovery_ckpt");
  ASSERT_TRUE(RunChildAndKill(dir, [](Testbed* tb) {
    DKB_RETURN_IF_ERROR(ApplyPhase1(tb));
    // The checkpoint truncates the WAL; phase 2 lands in the (short) tail.
    DKB_RETURN_IF_ERROR(tb->Checkpoint());
    return ApplyPhase2(tb);
  }));

  auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // Recovery went through the checkpoint: sys-level stats must show it.
  auto ckpt = (*recovered)->CheckpointSnapshot();
  EXPECT_TRUE(ckpt.exists);
  auto wal = (*recovered)->WalSnapshot();
  EXPECT_TRUE(wal.enabled);
  EXPECT_GT(wal.last_lsn, ckpt.last_lsn);

  auto oracle = Testbed::Create();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(ApplyPhase1(oracle->get()).ok());
  ASSERT_TRUE(ApplyPhase2(oracle->get()).ok());

  EXPECT_EQ(StateFingerprint(recovered->get()),
            StateFingerprint(oracle->get()));
}

TEST(RecoveryTest, WritesAfterRecoveryAreDurableAcrossASecondCrash) {
  std::string dir = FreshDir("recovery_twice");
  ASSERT_TRUE(RunChildAndKill(dir, ApplyPhase1));

  // Crash again after writing through a *recovered* testbed: LSNs must keep
  // ascending across the first crash for the second tail to replay.
  ASSERT_TRUE(RunChildAndKill(dir, ApplyPhase2));

  auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto oracle = Testbed::Create();
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(ApplyPhase1(oracle->get()).ok());
  ASSERT_TRUE(ApplyPhase2(oracle->get()).ok());
  EXPECT_EQ(StateFingerprint(recovered->get()),
            StateFingerprint(oracle->get()));
}

TEST(RecoveryTest, CleanRestartReplaysClearWorkspace) {
  std::string dir = FreshDir("recovery_clear");
  {
    auto tb = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    ASSERT_TRUE(ApplyPhase1(tb->get()).ok());
    (*tb)->ClearWorkspace();
    // Clean shutdown (destructor runs) — restart still goes through WAL
    // replay, exercising kClearWorkspace.
  }
  auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->ListRuleTexts().empty());
  // Stored facts were committed by UpdateStoredDkb and survive the
  // workspace clear.
  std::string root = workload::TreeNodeName(0, 0);
  auto q = (*recovered)->Query("ancestor('" + root + "', W)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->result.rows.size(), 30u);
}

/// The rows of `table` as a sorted set, or "missing" if it cannot be read.
std::set<std::string> TableContents(Testbed* tb, const std::string& table) {
  auto rows = tb->ExecuteSql("SELECT * FROM " + table);
  if (!rows.ok()) return {"missing"};
  return AnswerSet(*rows);
}

// Queries neither drop nor write user tables named like the LFP's relations
// (their drops were never logged), so the recovered tables equal the live
// ones.
TEST(RecoveryTest, UserTablesOfLfpNamesSurviveQueriesAndRecovery) {
  std::string dir = FreshDir("recovery_lfp_names");
  const std::vector<std::string> tables = {"idb_anc", "#anc_new"};
  std::vector<std::set<std::string>> live;
  {
    auto tb = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    ASSERT_TRUE((*tb)->Consult("anc(X, Y) :- par(X, Y).\n"
                               "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
                               "par(a, b).\npar(b, c).\n")
                    .ok());
    for (const std::string& table : tables) {
      ASSERT_TRUE((*tb)->ExecuteSql("CREATE TABLE " + table +
                                    " (c0 VARCHAR, c1 VARCHAR)")
                      .ok());
      ASSERT_TRUE(
          (*tb)->ExecuteSql("INSERT INTO " + table + " VALUES ('x', 'y')")
              .ok());
    }
    for (lfp::LfpStrategy strategy :
         {lfp::LfpStrategy::kNaive, lfp::LfpStrategy::kSemiNaive,
          lfp::LfpStrategy::kNativeTc}) {
      auto q = (*tb)->Query("?- anc(a, W).",
                            QueryOptions{}.WithStrategy(strategy));
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      EXPECT_EQ(q->result.rows.size(), 2u);
    }
    for (const std::string& table : tables) {
      live.push_back(TableContents(tb->get(), table));
    }
  }
  auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (size_t i = 0; i < tables.size(); ++i) {
    SCOPED_TRACE(tables[i]);
    EXPECT_EQ(live[i], (std::set<std::string>{"x|y|"}));
    EXPECT_EQ(TableContents(recovered->get(), tables[i]), live[i]);
  }
}

/// What a rejected write must leave alone: the workspace rules, the rows of
/// edb_p and sys.wal's last_lsn.
std::vector<std::set<std::string>> ConsultState(Testbed* tb) {
  std::vector<std::string> rules = tb->ListRuleTexts();
  return {std::set<std::string>(rules.begin(), rules.end()),
          TableContents(tb, "edb_p"),
          AnswerSet(*tb->ExecuteSql("SELECT last_lsn FROM sys.wal"))};
}

// A consult applies whole or not at all, and logs only what applies: facts
// of one predicate with two row types, facts that do not fit an existing
// base predicate, facts whose relation name a user table holds, or facts
// (and a DefineBase) of a predicate the stored rules derive are rejected
// before the WAL record is written, so no rule of the consult stays behind,
// live or after recovery.
TEST(RecoveryTest, RejectedConsultAppliesAndLogsNothing) {
  auto consult = [](std::string text) {
    return [text](Testbed* tb) { return tb->Consult(text); };
  };
  struct Case {
    std::string name;
    std::string facts;  // consulted first
    std::string sql;    // run next
    bool store;         // then UpdateStoredDkb and ClearWorkspace
    std::function<Status(Testbed*)> rejected;
    StatusCode code;
  };
  const std::string derived_g = "p(a).\nf(c, d).\ng(X, Y) :- f(X, Y).\n";
  const Case cases[] = {
      {"inconsistent", "", "", false, consult("q(X) :- p(X).\np(a).\np(1).\n"),
       StatusCode::kTypeError},
      {"base_mismatch", "p(a).\n", "", false,
       consult("r(X) :- p(X).\np(1).\n"), StatusCode::kTypeError},
      {"table_taken", "", "CREATE TABLE edb_p (c0 VARCHAR)", false,
       consult("r(X) :- p(X).\np(a).\n"), StatusCode::kAlreadyExists},
      {"derived_facts", derived_g, "", true,
       consult("r(X) :- p(X).\ng(a, b).\n"), StatusCode::kAlreadyExists},
      {"derived_define_base", derived_g, "", true,
       [](Testbed* tb) {
         return tb->DefineBase("g", {DataType::kVarchar, DataType::kVarchar});
       },
       StatusCode::kAlreadyExists}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string dir = FreshDir("recovery_rejected_" + c.name);
    std::vector<std::set<std::string>> live;
    {
      auto tb = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
      ASSERT_TRUE(tb.ok()) << tb.status().ToString();
      ASSERT_TRUE((*tb)->Consult("s(X) :- p(X).\n" + c.facts).ok());
      if (!c.sql.empty()) {
        ASSERT_TRUE((*tb)->ExecuteSql(c.sql).ok());
      }
      if (c.store) {
        ASSERT_TRUE((*tb)->UpdateStoredDkb().ok());
        ASSERT_TRUE((*tb)->ClearWorkspace().ok());
      }
      live = ConsultState(tb->get());
      Status rejected = c.rejected(tb->get());
      EXPECT_EQ(rejected.code(), c.code) << rejected.ToString();
      EXPECT_EQ(ConsultState(tb->get()), live);
    }
    auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(ConsultState(recovered->get()), live);
  }
}

/// 5,000 rows that fit p(VARCHAR, VARCHAR), then `bad`: the bad row lands in
/// the fifth 1,024-row batch.
std::vector<Tuple> RowsEndingIn(Tuple bad) {
  std::vector<Tuple> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value("r" + std::to_string(i)), Value("s")});
  }
  rows.push_back(std::move(bad));
  return rows;
}

// AddFacts applies whole or not at all, and logs only what applies: a short
// row, a long row, a value of the wrong type at row 5,001 and an unknown
// predicate are each rejected before the WAL record is written, so none of
// the 5,000 good rows before them is stored, live or after recovery.
TEST(RecoveryTest, RejectedAddFactsAppliesAndLogsNothing) {
  struct Case {
    std::string name;
    std::string pred;
    Tuple bad;
    StatusCode code;
  };
  const Case cases[] = {
      {"short_row", "p", {Value("x")}, StatusCode::kInvalidArgument},
      {"long_row", "p", {Value("x"), Value("y"), Value("z")},
       StatusCode::kInvalidArgument},
      {"bad_type", "p", {Value("x"), Value(int64_t{7})},
       StatusCode::kTypeError},
      {"unknown_pred", "nope", {Value("x"), Value("y")},
       StatusCode::kNotFound}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string dir = FreshDir("recovery_rejected_facts_" + c.name);
    std::vector<std::set<std::string>> live;
    {
      auto tb = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
      ASSERT_TRUE(tb.ok()) << tb.status().ToString();
      ASSERT_TRUE((*tb)->Consult("s(X) :- p(X, Y).\np(a, b).\n").ok());
      ASSERT_TRUE((*tb)->AddFacts("p", {{Value("c"), Value()}}).ok());
      live = ConsultState(tb->get());
      Status rejected = (*tb)->AddFacts(c.pred, RowsEndingIn(c.bad));
      EXPECT_EQ(rejected.code(), c.code) << rejected.ToString();
      EXPECT_EQ(ConsultState(tb->get()), live);
    }
    auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(ConsultState(recovered->get()), live);
  }
}

// Every write but SQL checks everything that can reject it before its WAL
// record is written, and SQL is logged only once it parses: each of these
// writes returns its error and moves neither the log, the commit epoch nor
// the query cache, live or after recovery.
TEST(RecoveryTest, RejectedWriteAppliesAndLogsNothing) {
  struct Case {
    std::string name;
    std::function<Status(Testbed*)> write;
    StatusCode code;
  };
  const Case cases[] = {
      {"retract_absent_rule",
       [](Testbed* tb) { return tb->RetractRule("s(X) :- q(X)."); },
       StatusCode::kNotFound},
      {"define_existing_base",
       [](Testbed* tb) { return tb->DefineBase("p", {DataType::kVarchar}); },
       StatusCode::kAlreadyExists},
      {"define_no_columns", [](Testbed* tb) { return tb->DefineBase("z", {}); },
       StatusCode::kInvalidArgument},
      {"define_invalid_type",
       [](Testbed* tb) { return tb->DefineBase("y", {DataType::kInvalid}); },
       StatusCode::kInvalidArgument},
      {"add_fact_as_rule", [](Testbed* tb) { return tb->AddRule("p(a)."); },
       StatusCode::kInvalidArgument},
      {"sql_parse_error",
       [](Testbed* tb) { return tb->ExecuteSql("INSER INTO x").status(); },
       StatusCode::kInvalidArgument},
      {"update_unknown_body",
       [](Testbed* tb) { return tb->UpdateStoredDkb().status(); },
       StatusCode::kSemanticError}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string dir = FreshDir("recovery_rejected_write_" + c.name);
    std::vector<std::set<std::string>> live;
    {
      auto tb = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
      ASSERT_TRUE(tb.ok()) << tb.status().ToString();
      Testbed* t = tb->get();
      ASSERT_TRUE(t->Consult("s(X) :- p(X).\np(a).\n").ok());
      ASSERT_TRUE(t->AddRule("bad(X) :- p(X), ghost(X).").ok());
      ASSERT_TRUE(t->Query("?- s(W).", QueryOptions{}.WithCache()).ok());
      live = ConsultState(t);
      const int64_t appends = t->WalSnapshot().appends;
      const uint64_t epoch = t->epoch();
      const size_t cached = t->query_cache().size();
      const int64_t invalidated = t->query_cache().stats().invalidated;
      Status rejected = c.write(t);
      EXPECT_EQ(rejected.code(), c.code) << rejected.ToString();
      EXPECT_EQ(ConsultState(t), live);
      EXPECT_EQ(t->WalSnapshot().appends, appends);
      EXPECT_EQ(t->epoch(), epoch);
      EXPECT_EQ(t->query_cache().size(), cached);
      EXPECT_EQ(t->query_cache().stats().invalidated, invalidated);
    }
    auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(ConsultState(recovered->get()), live);
  }
}

// A record whose payload the mutation codec rejects stops recovery with
// InvalidArgument instead of replaying as something else: a column type
// byte that names no type, and a row count the payload cannot hold.
/// Rules whose constants hold a backslash (inside and trailing) or a quote,
/// over facts that only those exact constants match.
const char kQuotedConstantRules[] = R"(
q(1, 'a\\b'). q(2, 'ab'). q(3, 'end\\'). q(4, 'it\'s').
inner(X) :- q(X, 'a\\b').
trailing(X) :- q(X, 'end\\').
quote(X) :- q(X, 'it\'s').
)";

/// The answers of the three rules of kQuotedConstantRules.
std::vector<std::set<std::string>> QuotedConstantAnswers(Testbed* tb) {
  std::vector<std::set<std::string>> out;
  for (const char* goal : {"inner(W)", "trailing(W)", "quote(W)"}) {
    auto q = tb->Query(goal);
    EXPECT_TRUE(q.ok()) << goal << ": " << q.status().ToString();
    out.push_back(q.ok() ? AnswerSet(q->result) : std::set<std::string>{});
  }
  return out;
}

// Stored rules are parsed back from their text (rulesource), so the text
// must round-trip: after :update and :clear, each rule answers as before.
TEST(RecoveryTest, StoredRulesKeepQuotedConstants) {
  auto tb = Testbed::Create();
  ASSERT_TRUE(tb.ok()) << tb.status().ToString();
  ASSERT_TRUE((*tb)->Consult(kQuotedConstantRules).ok());
  const std::vector<std::set<std::string>> expected = {
      {"1|"}, {"3|"}, {"4|"}};
  EXPECT_EQ(QuotedConstantAnswers(tb->get()), expected);
  ASSERT_TRUE((*tb)->UpdateStoredDkb().ok());
  (*tb)->ClearWorkspace();
  EXPECT_EQ(QuotedConstantAnswers(tb->get()), expected);
}

// A checkpoint writes the workspace rules as text; reopening parses them.
TEST(RecoveryTest, CheckpointReopensWithQuotedConstants) {
  std::string dir = FreshDir("recovery_quoted_constants");
  std::vector<std::string> rules;
  {
    auto tb = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    ASSERT_TRUE((*tb)->Consult(kQuotedConstantRules).ok());
    rules = (*tb)->ListRuleTexts();
    ASSERT_TRUE((*tb)->Checkpoint().ok());
  }
  auto recovered = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->ListRuleTexts(), rules);
  EXPECT_EQ(QuotedConstantAnswers(recovered->get()),
            (std::vector<std::set<std::string>>{{"1|"}, {"3|"}, {"4|"}}));
}

TEST(RecoveryTest, MalformedRecordStopsRecovery) {
  codec::Writer bad_type;
  bad_type.Str("q");
  bad_type.U16(1);
  bad_type.U8(200);
  codec::Writer too_many_rows;
  too_many_rows.Str("q");
  too_many_rows.U32(UINT32_MAX);
  const struct {
    std::string name;
    WalRecordKind kind;
    std::string payload;
  } cases[] = {{"type_byte_200", WalRecordKind::kDefineBase, bad_type.str()},
               {"rows_2_32", WalRecordKind::kAddFacts, too_many_rows.str()}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::string dir = FreshDir("recovery_malformed_" + c.name);
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    {
      auto wal = Wal::Open(dir + "/dkb.wal", Wal::Options{});
      ASSERT_TRUE(wal.ok()) << wal.status().ToString();
      auto lsn = (*wal)->Append(c.kind, c.payload);
      ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
      ASSERT_TRUE((*wal)->WaitDurable(*lsn).ok());
    }
    auto tb = Testbed::Create(TestbedOptions{}.WithWalDir(dir));
    ASSERT_FALSE(tb.ok());
    EXPECT_EQ(tb.status().code(), StatusCode::kInvalidArgument)
        << tb.status().ToString();
  }
}

}  // namespace
}  // namespace dkb::testbed
