// Robustness: hostile and mutated inputs must produce error Statuses, never
// crashes, and must leave the system usable afterwards.

#include <gtest/gtest.h>

#include <string>

#include "client/remote_client.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "net/server.h"
#include "rdbms/database.h"
#include "sql/parser.h"
#include "testbed/testbed.h"

namespace dkb {
namespace {

std::string RandomBytes(Rng* rng, size_t n) {
  // Printable-ish garbage with occasional structure characters.
  static const char kChars[] =
      "abcXYZ012 ,.()'\"<>=!:-?%\\\t\n_#;*+[]{}";
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out += kChars[rng->Uniform(0, sizeof(kChars) - 2)];
  }
  return out;
}

TEST(RobustnessTest, SqlParserSurvivesGarbage) {
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(&rng, rng.Uniform(1, 120));
    auto result = sql::ParseStatement(input);
    // Either parses (unlikely) or errors; must not crash.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(RobustnessTest, SqlParserSurvivesMutatedStatements) {
  Rng rng(7);
  const std::string base =
      "SELECT DISTINCT a.x, b.y FROM t a, u b WHERE a.x = b.y AND a.z "
      "IN (1, 2) ORDER BY 1 LIMIT 5";
  for (int i = 0; i < 500; ++i) {
    std::string mutated = base;
    int edits = static_cast<int>(rng.Uniform(1, 4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      switch (rng.Uniform(0, 2)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>(rng.Uniform(32, 126)));
          break;
        default:
          mutated[pos] = static_cast<char>(rng.Uniform(32, 126));
      }
    }
    auto result = sql::ParseStatement(mutated);
    (void)result;  // outcome irrelevant; absence of crash is the assertion
  }
}

TEST(RobustnessTest, DatalogParserSurvivesGarbage) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(&rng, rng.Uniform(1, 100));
    auto program = datalog::ParseProgram(input);
    (void)program;
    auto rule = datalog::ParseRule(input);
    (void)rule;
  }
}

TEST(RobustnessTest, DatabaseUsableAfterErrors) {
  Database db;
  ASSERT_TRUE(db.ExecuteAll("CREATE TABLE t (x INT);"
                            "INSERT INTO t VALUES (1)")
                  .ok());
  // A pile of failing statements...
  EXPECT_FALSE(db.Execute("SELECT * FROM missing").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES ('wrong type')").ok());
  EXPECT_FALSE(db.Execute("CREATE TABLE t (x INT)").ok());
  EXPECT_FALSE(db.Execute("SELECT bogus FROM t").ok());
  EXPECT_FALSE(db.Execute("nonsense ( here").ok());
  // ...must not corrupt state.
  auto count = db.QueryCount("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1);
}

TEST(RobustnessTest, TestbedUsableAfterQueryErrors) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult("anc(X,Y) :- par(X,Y).\n"
                          "anc(X,Y) :- par(X,Z), anc(Z,Y).\n"
                          "par(a, b).\n")
                  .ok());
  EXPECT_FALSE(tb->Query("?- ghost(X).").ok());
  EXPECT_FALSE(tb->Query("?- anc(X).").ok());           // arity
  EXPECT_FALSE(tb->Query("?- anc(1, X).").ok());        // type
  EXPECT_FALSE(tb->Consult("broken(X :- q(X).").ok());  // syntax
  // Unsafe rule poisons only queries that reach it.
  ASSERT_TRUE(tb->AddRule("bad(X, Q) :- par(X, Y2).").ok());
  EXPECT_FALSE(tb->Query("?- bad(a, W).").ok());
  auto good = tb->Query("?- anc(a, W).");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->result.rows.size(), 1u);
  // No leaked idb/temp tables from the failed attempts.
  for (const std::string& name : tb->db().catalog().TableNames()) {
    EXPECT_EQ(name.find('#'), std::string::npos) << name;
    EXPECT_NE(name, "idb_anc");
  }
}

/// `SELECT c0 FROM <table> WHERE NOT NOT ... c0 = 1` with `nots` NOTs.
std::string DeepNotSql(const std::string& table, size_t nots) {
  std::string sql = "SELECT c0 FROM " + table + " WHERE ";
  for (size_t i = 0; i < nots; ++i) sql += "NOT ";
  return sql + "c0 = 1";
}

/// `SELECT c0 FROM t WHERE c0 = 1 AND c0 = 1 ...` with `terms` conjuncts.
std::string AndChainSql(size_t terms) {
  std::string sql = "SELECT c0 FROM t WHERE c0 = 1";
  for (size_t i = 1; i < terms; ++i) sql += " AND c0 = 1";
  return sql;
}

TEST(RobustnessTest, DeepNotNestingIsRejectedAtParse) {
  // 50,000 NOTs (200 KB) used to overflow the parser's stack.
  auto parsed = sql::ParseStatement(DeepNotSql("t", 50000));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, LongAndChainIsRejectedAtParse) {
  // A 200,000-term chain parsed, then overflowed the passes that recurse
  // over its left-deep tree.
  auto parsed = sql::ParseStatement(AndChainSql(200000));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  std::string parens = "SELECT c0 FROM t WHERE ";
  parens += std::string(50000, '(') + "c0 = 1" + std::string(50000, ')');
  EXPECT_EQ(sql::ParseStatement(parens).status().code(),
            StatusCode::kInvalidArgument);
  std::string selects = std::string(50000, '(') + "SELECT c0 FROM t" +
                        std::string(50000, ')');
  EXPECT_EQ(sql::ParseStatement(selects).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RobustnessTest, ExpressionsWithinTheDepthLimitRun) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (c0 INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2)").ok());
  auto chain = db.Execute(AndChainSql(sql::kMaxExpressionDepth - 1));
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(chain->rows.size(), 1u);
  // An even number of NOTs keeps the predicate's meaning.
  auto nots = db.Execute(DeepNotSql("t", sql::kMaxExpressionDepth - 4));
  ASSERT_TRUE(nots.ok()) << nots.status().ToString();
  EXPECT_EQ(nots->rows.size(), 1u);
  const size_t depth = sql::kMaxExpressionDepth;
  std::string parens = "SELECT c0 FROM t WHERE ";
  parens += std::string(depth, '(') + "c0 = 2" + std::string(depth, ')');
  auto nested = db.Execute(parens);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(nested->rows.size(), 1u);
  EXPECT_FALSE(db.Execute(AndChainSql(sql::kMaxExpressionDepth + 1)).ok());
}

TEST(RobustnessTest, ServerRejectsDeepNestingAndKeepsServing) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult("p(1).\np(2).\n").ok());
  net::Server server;
  ASSERT_TRUE(server.Start(tb.get(), net::ServerOptions{}).ok());
  const std::string target = "127.0.0.1:" + std::to_string(server.port());
  {
    auto client = RemoteClient::Connect(target);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto deep = (*client)->ExecuteSql(DeepNotSql("edb_p", 50000));
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  }
  auto other = RemoteClient::Connect(target);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  auto shallow = (*other)->ExecuteSql(DeepNotSql("edb_p", 2));
  ASSERT_TRUE(shallow.ok()) << shallow.status().ToString();
  EXPECT_EQ(shallow->rows.size(), 1u);
  server.Stop();
}

TEST(RobustnessTest, RetractRule) {
  auto tb_or = testbed::Testbed::Create();
  ASSERT_TRUE(tb_or.ok());
  auto tb = std::move(*tb_or);
  ASSERT_TRUE(tb->Consult("p(X) :- e(X, Y2).\np(X) :- f(X, X).\n"
                          "e(a, b).\nf(c, c).\n")
                  .ok());
  ASSERT_TRUE(tb->RetractRule("p(X) :- f(X, X).").ok());
  EXPECT_EQ(tb->workspace().num_rules(), 1u);
  auto outcome = tb->Query("?- p(X).");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.rows.size(), 1u);  // only via e
  EXPECT_EQ(tb->RetractRule("p(X) :- f(X, X).").code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(tb->RetractRule("p(X :-").ok());
}

}  // namespace
}  // namespace dkb
