#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "datalog/parser.h"
#include "lfp/instance.h"
#include "testbed/session.h"
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

class PrecompileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = Testbed::Create();
    ASSERT_TRUE(tb.ok());
    tb_ = std::move(*tb);
    ASSERT_TRUE(tb_->Consult(workload::AncestorRules() +
                             "parent(a, b).\nparent(b, c).\nparent(b, d).\n")
                    .ok());
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(PrecompileTest, SecondQueryHitsCache) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  auto first = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->report.from_cache);
  auto second = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->report.from_cache);
  EXPECT_EQ(second->report.compile.total_us(), 0);
  EXPECT_EQ(AnswerSet(first->result), AnswerSet(second->result));
  EXPECT_EQ(tb_->query_cache().stats().hits, 1);
  EXPECT_EQ(tb_->query_cache().stats().misses, 1);
}

TEST_F(PrecompileTest, DifferentGoalsAndOptionsMiss) {
  QueryOptions plain = QueryOptions::SemiNaive().WithCache();
  QueryOptions magic = QueryOptions::Magic().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", plain).ok());
  // Another constant is the same form: a hit, bound to b's constant.
  auto other_goal = tb_->Query("?- ancestor(b, W).", plain);
  ASSERT_TRUE(other_goal.ok());
  EXPECT_TRUE(other_goal->report.from_cache);
  EXPECT_EQ(AnswerSet(other_goal->result),
            (std::set<std::string>{"c|", "d|"}));
  auto other_opts = tb_->Query("?- ancestor(a, W).", magic);
  ASSERT_TRUE(other_opts.ok());
  EXPECT_FALSE(other_opts->report.from_cache);
}

TEST_F(PrecompileTest, CacheDisabledByDefault) {
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).").ok());
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).").ok());
  EXPECT_EQ(tb_->query_cache().stats().hits, 0);
  EXPECT_EQ(tb_->query_cache().size(), 0u);
}

TEST_F(PrecompileTest, AddRuleInvalidatesDependentEntries) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  ASSERT_EQ(tb_->query_cache().size(), 1u);
  // New ancestor rule: the cached program is stale and must recompile.
  ASSERT_TRUE(tb_->Consult("ancestor(X, Y) :- step(X, Y).\n"
                           "step(a, z).\n")
                  .ok());
  EXPECT_EQ(tb_->query_cache().size(), 0u);
  EXPECT_EQ(tb_->query_cache().stats().invalidated, 1);
  auto after = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->report.from_cache);
  EXPECT_EQ(AnswerSet(after->result),
            (std::set<std::string>{"b|", "c|", "d|", "z|"}));
}

TEST_F(PrecompileTest, UnrelatedRuleKeepsEntry) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  ASSERT_TRUE(tb_->AddRule("unrelated(X, Y) :- parent(X, Y).").ok());
  EXPECT_EQ(tb_->query_cache().size(), 1u);
  auto again = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->report.from_cache);
}

TEST_F(PrecompileTest, InvalidationOnBodyPredicateDependency) {
  // A cached program depending on `parent` must drop when a rule defining
  // `parent`-reachable predicates it uses changes. Here: add a rule whose
  // head is `parent` itself (now derived+base is illegal, so use a derived
  // wrapper instead).
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Consult("fam(X, Y) :- parent(X, Y).\n"
                           "closure(X, Y) :- fam(X, Y).\n"
                           "closure(X, Y) :- fam(X, Z), closure(Z, Y).\n")
                  .ok());
  ASSERT_TRUE(tb_->Query("?- closure(a, W).", opts).ok());
  ASSERT_EQ(tb_->query_cache().size(), 1u);
  // fam is a body dependency of closure's program.
  ASSERT_TRUE(tb_->AddRule("fam(X, Y) :- spouse(X, Y).").ok());
  EXPECT_EQ(tb_->query_cache().size(), 0u);
}

TEST_F(PrecompileTest, ClearWorkspaceClearsCache) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  tb_->ClearWorkspace();
  EXPECT_EQ(tb_->query_cache().size(), 0u);
}

TEST_F(PrecompileTest, FactsDoNotInvalidate) {
  QueryOptions opts = QueryOptions::SemiNaive().WithCache();
  ASSERT_TRUE(tb_->Query("?- ancestor(a, W).", opts).ok());
  ASSERT_TRUE(tb_->AddFacts("parent", {{Value("d"), Value("e")}}).ok());
  auto after = tb_->Query("?- ancestor(a, W).", opts);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->report.from_cache);
  // New facts visible despite the cached program.
  EXPECT_EQ(AnswerSet(after->result),
            (std::set<std::string>{"b|", "c|", "d|", "e|"}));
}

// ---------------------------------------------------------------------------
// Query forms: one precompiled program per goal form
// ---------------------------------------------------------------------------

/// The ancestor program over a small forest: a's descendants {b, c, d, e},
/// b's {c, d, e}, x's {y}.
std::unique_ptr<Testbed> MakeFamily() {
  auto tb = Testbed::Create();
  EXPECT_TRUE(tb.ok());
  EXPECT_TRUE((*tb)->Consult(workload::AncestorRules() +
                             "parent(a, b).\nparent(b, c).\nparent(b, d).\n"
                             "parent(d, e).\nparent(x, y).\n")
                  .ok());
  return std::move(*tb);
}

TEST(QueryFormTest, OneFormServesManyConstants) {
  struct Config {
    std::string name;
    QueryOptions options;
  };
  std::vector<Config> configs;
  const std::pair<const char*, lfp::LfpStrategy> strategies[] = {
      {"naive", lfp::LfpStrategy::kNaive},
      {"seminaive", lfp::LfpStrategy::kSemiNaive},
      {"native-tc", lfp::LfpStrategy::kNativeTc}};
  for (const auto& [name, strategy] : strategies) {
    configs.push_back({std::string(name) + "/plain",
                       QueryOptions::SemiNaive().WithStrategy(strategy)});
    configs.push_back({std::string(name) + "/magic",
                       QueryOptions::Magic().WithStrategy(strategy)});
  }
  configs.push_back({"supplementary", QueryOptions::SupplementaryMagic()});
  const std::set<std::string> of_a = {"b|", "c|", "d|", "e|"};
  const std::set<std::string> of_b = {"c|", "d|", "e|"};
  for (Config& config : configs) {
    SCOPED_TRACE(config.name);
    std::unique_ptr<Testbed> tb = MakeFamily();
    const QueryOptions opts = config.options.WithCache();
    auto a = tb->Query("ancestor(a, W)", opts);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_FALSE(a->report.from_cache);
    EXPECT_EQ(AnswerSet(a->result), of_a);
    auto b = tb->Query("ancestor(b, W)", opts);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(b->report.from_cache);
    EXPECT_EQ(AnswerSet(b->result), of_b);
    auto a_again = tb->Query("ancestor(a, W)", opts);
    ASSERT_TRUE(a_again.ok()) << a_again.status().ToString();
    EXPECT_TRUE(a_again->report.from_cache);
    EXPECT_EQ(AnswerSet(a_again->result), of_a);
    // A constant no fact mentions is still the same form.
    auto unknown = tb->Query("ancestor(nobody, W)", opts);
    ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
    EXPECT_TRUE(unknown->report.from_cache);
    EXPECT_TRUE(unknown->result.rows.empty());
    EXPECT_EQ(tb->query_cache().size(), 1u);
    EXPECT_EQ(tb->query_cache().stats().misses, 1);
  }
}

TEST(QueryFormTest, OtherFormsGetTheirOwnEntries) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  ASSERT_TRUE(tb->Consult("num(1, 2).\nnum(2, 3).\n"
                          "next(X, Y) :- num(X, Y).\n")
                  .ok());
  const QueryOptions opts = QueryOptions::Magic().WithCache();
  auto run = [&](const std::string& goal) {
    auto outcome = tb->Query(goal, opts);
    EXPECT_TRUE(outcome.ok()) << goal << ": " << outcome.status().ToString();
    return outcome.ok() ? std::move(*outcome) : QueryOutcome{};
  };
  ASSERT_FALSE(run("ancestor(a, W)").report.from_cache);
  // Another binding pattern.
  QueryOutcome up = run("ancestor(W, e)");
  EXPECT_FALSE(up.report.from_cache);
  EXPECT_EQ(AnswerSet(up.result), (std::set<std::string>{"a|", "b|", "d|"}));
  // Another variable name: the answer column is named after it.
  QueryOutcome renamed = run("ancestor(b, V)");
  EXPECT_FALSE(renamed.report.from_cache);
  EXPECT_EQ(renamed.compiled->program.answer_columns,
            std::vector<std::string>{"V"});
  EXPECT_EQ(AnswerSet(renamed.result),
            (std::set<std::string>{"c|", "d|", "e|"}));
  // A repeated variable is a conjunct: nobody is their own ancestor.
  QueryOutcome same = run("ancestor(X, X)");
  EXPECT_FALSE(same.report.from_cache);
  EXPECT_TRUE(same.result.rows.empty());
  // Boolean goals are a form of their own, shared by every constant pair.
  QueryOutcome yes = run("ancestor(a, e)");
  EXPECT_FALSE(yes.report.from_cache);
  ASSERT_EQ(yes.result.rows.size(), 1u);
  EXPECT_GT(yes.result.rows[0][0].as_int(), 0);
  QueryOutcome no = run("ancestor(e, a)");
  EXPECT_TRUE(no.report.from_cache);
  ASSERT_EQ(no.result.rows.size(), 1u);
  EXPECT_EQ(no.result.rows[0][0].as_int(), 0);
  EXPECT_EQ(tb->query_cache().size(), 5u);
  // A constant of another type is another form: next('1', W) is compiled,
  // and fails its type check, instead of serving next(1, W)'s program.
  QueryOutcome one = run("next(1, W)");
  EXPECT_EQ(AnswerSet(one.result), (std::set<std::string>{"2|"}));
  QueryOutcome two = run("next(2, W)");
  EXPECT_TRUE(two.report.from_cache);
  EXPECT_EQ(AnswerSet(two.result), (std::set<std::string>{"3|"}));
  auto quoted = tb->Query("next('1', W)", opts);
  EXPECT_FALSE(quoted.ok());
  EXPECT_EQ(quoted.status().code(), StatusCode::kTypeError);
}

TEST(QueryFormTest, AdaptiveKeepsOneEntryPerConstant) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  const QueryOptions opts = QueryOptions::Adaptive().WithCache();
  ASSERT_TRUE(tb->Query("ancestor(a, W)", opts).ok());
  auto same = tb->Query("ancestor(a, W)", opts);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->report.from_cache);
  auto other = tb->Query("ancestor(b, W)", opts);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->report.from_cache);
  EXPECT_EQ(AnswerSet(other->result),
            (std::set<std::string>{"c|", "d|", "e|"}));
  EXPECT_EQ(tb->query_cache().size(), 2u);
}

TEST(QueryFormTest, ClearingUnrelatedWorkspaceRuleKeepsStoredProgram) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  ASSERT_TRUE(tb->UpdateStoredDkb().ok());
  tb->ClearWorkspace();
  const QueryOptions opts = QueryOptions::Magic().WithCache();
  ASSERT_TRUE(tb->Query("ancestor(a, W)", opts).ok());
  ASSERT_TRUE(tb->AddRule("unrelated(X, Y) :- parent(X, Y).").ok());
  tb->ClearWorkspace();
  EXPECT_EQ(tb->query_cache().size(), 1u);
  auto hit = tb->Query("ancestor(b, W)", opts);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->report.from_cache);
  EXPECT_EQ(AnswerSet(hit->result),
            (std::set<std::string>{"c|", "d|", "e|"}));
}

TEST(QueryFormTest, HitReportsTheCompileSummary) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  const QueryOptions opts = QueryOptions::Magic().WithCache();
  auto miss = tb->Query("ancestor(a, W)", opts);
  ASSERT_TRUE(miss.ok());
  auto hit = tb->Query("ancestor(a, W)", opts);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->report.from_cache);
  ASSERT_TRUE(miss->report.plan.magic_applied);
  const PlanSummary& m = miss->report.plan;
  const PlanSummary& h = hit->report.plan;
  EXPECT_EQ(h.magic_applied, m.magic_applied);
  EXPECT_EQ(h.rules_relevant, m.rules_relevant);
  EXPECT_EQ(h.rules_pruned, m.rules_pruned);
  EXPECT_EQ(h.final_select, m.final_select);
  ASSERT_EQ(h.nodes.size(), m.nodes.size());
  for (size_t i = 0; i < h.nodes.size(); ++i) {
    EXPECT_EQ(h.nodes[i].label, m.nodes[i].label);
    EXPECT_EQ(h.nodes[i].exit_rules, m.nodes[i].exit_rules);
    EXPECT_EQ(h.nodes[i].recursive_rules, m.nodes[i].recursive_rules);
  }
  // The counts come with the program; the timings do not.
  EXPECT_EQ(hit->report.compile.rules_relevant,
            miss->report.compile.rules_relevant);
  EXPECT_EQ(hit->report.compile.total_us(), 0);

  // The EXPLAIN plan text differs only in the cache flag.
  const QueryOptions explain =
      QueryOptions(opts).WithExplain(ExplainMode::kPlan);
  auto plan_text = [&](const std::string& goal) {
    auto outcome = tb->Query(goal, explain);
    EXPECT_TRUE(outcome.ok());
    std::string text;
    for (const Tuple& row : outcome->result.rows) {
      const std::string& line = row[0].as_string();
      // The plan ends where the timings start.
      if (line.rfind("compile:", 0) == 0 || line.rfind("total:", 0) == 0) {
        break;
      }
      text += line + "\n";
    }
    return text;
  };
  tb = MakeFamily();
  std::string miss_text = plan_text("ancestor(a, W)");
  const std::string hit_text = plan_text("ancestor(a, W)");
  const size_t flag = miss_text.find("cache: miss");
  ASSERT_NE(flag, std::string::npos);
  miss_text.replace(flag, 11, "cache: hit");
  EXPECT_EQ(hit_text, miss_text);
  EXPECT_NE(hit_text.find("magic: on"), std::string::npos);

  // sys.query_log records the hit's magic decision too.
  auto log = tb->ExecuteSql(
      "SELECT magic FROM sys.query_log WHERE from_cache = 1");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->rows.size(), 1u);
  EXPECT_EQ(log->rows[0][0].as_int(), 1);
}

// ---------------------------------------------------------------------------
// Program instances: a hit re-runs its form's planned statements and
// relations, and answers exactly like a fresh compile
// ---------------------------------------------------------------------------

int64_t RelationsBuilt() {
  return metrics::GlobalMetrics().counter("dkb.lfp.relations_built").value();
}

/// Runs `goal` through the cache and, for comparison, with the cache off;
/// the answers must agree. Returns the cached run's outcome.
QueryOutcome QueryBoth(Testbed* tb, const std::string& goal,
                       const QueryOptions& opts) {
  auto cached = tb->Query(goal, QueryOptions(opts).WithCache());
  EXPECT_TRUE(cached.ok()) << goal << ": " << cached.status().ToString();
  auto fresh = tb->Query(goal, QueryOptions(opts).WithCache(false));
  EXPECT_TRUE(fresh.ok()) << goal << ": " << fresh.status().ToString();
  if (!cached.ok() || !fresh.ok()) return QueryOutcome{};
  EXPECT_EQ(AnswerSet(cached->result), AnswerSet(fresh->result)) << goal;
  EXPECT_FALSE(fresh->report.from_cache);
  return std::move(*cached);
}

TEST(ProgramInstanceTest, ReusedFormAnswersLikeAFreshCompile) {
  const std::pair<const char*, lfp::LfpStrategy> strategies[] = {
      {"naive", lfp::LfpStrategy::kNaive},
      {"seminaive", lfp::LfpStrategy::kSemiNaive},
      {"native-tc", lfp::LfpStrategy::kNativeTc}};
  const std::pair<const char*, QueryOptions> rewrites[] = {
      {"plain", QueryOptions::SemiNaive()},
      {"magic", QueryOptions::Magic()},
      {"supplementary", QueryOptions::SupplementaryMagic()}};
  // Two forms, each a sequence of fresh constants (some repeated, some no
  // fact mentions).
  const std::vector<std::vector<std::string>> forms = {
      {"ancestor(a, W)", "ancestor(b, W)", "ancestor(nobody, W)",
       "ancestor(d, W)", "ancestor(x, W)", "ancestor(a, W)"},
      {"ancestor(a, e)", "ancestor(e, a)", "ancestor(x, y)",
       "ancestor(b, e)", "ancestor(a, y)"}};
  for (const auto& [sname, strategy] : strategies) {
    for (const auto& [rname, rewrite] : rewrites) {
      SCOPED_TRACE(std::string(sname) + "/" + rname);
      std::unique_ptr<Testbed> tb = MakeFamily();
      const QueryOptions opts = QueryOptions(rewrite).WithStrategy(strategy);
      for (const std::vector<std::string>& goals : forms) {
        for (size_t i = 0; i < goals.size(); ++i) {
          QueryOutcome outcome = QueryBoth(tb.get(), goals[i], opts);
          EXPECT_EQ(outcome.report.from_cache, i > 0) << goals[i];
        }
      }
    }
  }
}

TEST(ProgramInstanceTest, WarmHitPlansAndBuildsNothing) {
  for (lfp::LfpStrategy strategy :
       {lfp::LfpStrategy::kSemiNaive, lfp::LfpStrategy::kNativeTc,
        lfp::LfpStrategy::kNaive}) {
    SCOPED_TRACE(lfp::StrategyName(strategy));
    std::unique_ptr<Testbed> tb = MakeFamily();
    const QueryOptions opts =
        QueryOptions::Magic().WithStrategy(strategy).WithCache();
    auto miss = tb->Query("ancestor(a, W)", opts);
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    EXPECT_FALSE(miss->report.from_cache);
    EXPECT_GT(miss->report.exec.statements_planned, 0);
    // The miss kept its instance: the first hit is already warm.
    for (const char* goal : {"ancestor(b, W)", "ancestor(d, W)"}) {
      const int64_t built = RelationsBuilt();
      auto hit = tb->Query(goal, opts);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      EXPECT_TRUE(hit->report.from_cache);
      EXPECT_EQ(RelationsBuilt(), built) << goal;
      if (strategy == lfp::LfpStrategy::kNaive) {
        // Naive's per-iteration SQL is planned every iteration, by design.
        EXPECT_GT(hit->report.exec.statements_planned, 0);
      } else {
        EXPECT_EQ(hit->report.exec.statements_planned, 0) << goal;
      }
      // Runs still count as executed statements.
      EXPECT_GT(hit->report.db_delta.statements, 0);
    }
    // The cache-off path builds, plans and drops an instance every time.
    const int64_t built = RelationsBuilt();
    auto off = tb->Query("ancestor(b, W)", QueryOptions(opts).WithCache(false));
    ASSERT_TRUE(off.ok());
    EXPECT_GT(RelationsBuilt(), built);
    EXPECT_GT(off->report.exec.statements_planned, 0);
  }

  // sys.query_log, the JSON report and EXPLAIN ANALYZE carry the count.
  std::unique_ptr<Testbed> tb = MakeFamily();
  const QueryOptions opts = QueryOptions::Magic().WithCache();
  ASSERT_TRUE(tb->Query("ancestor(a, W)", opts).ok());
  auto hit = tb->Query("ancestor(b, W)", opts);
  ASSERT_TRUE(hit.ok());
  EXPECT_NE(hit->report.ToJson().find("\"statements_planned\": 0"),
            std::string::npos);
  auto log = tb->ExecuteSql(
      "SELECT from_cache, statements_planned FROM sys.query_log");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->rows.size(), 2u);
  for (const Tuple& row : log->rows) {
    EXPECT_EQ(row[1].as_int() == 0, row[0].as_int() == 1);
  }
  auto analyze = tb->Query(
      "ancestor(d, W)", QueryOptions(opts).WithExplain(ExplainMode::kAnalyze));
  ASSERT_TRUE(analyze.ok());
  std::string text;
  for (const Tuple& row : analyze->result.rows) text += row[0].as_string();
  EXPECT_NE(text.find("planned=0"), std::string::npos) << text;
}

/// A cached magic form run across an event between two hits: every answer
/// must equal the cache-off answer. Returns the hit's statements_planned.
int64_t HitAfter(Testbed* tb, const std::function<void()>& event,
                 const std::string& goal) {
  const QueryOptions opts = QueryOptions::Magic();
  QueryBoth(tb, "ancestor(a, W)", opts);
  QueryBoth(tb, "ancestor(b, W)", opts);
  event();
  QueryOutcome hit = QueryBoth(tb, goal, opts);
  EXPECT_TRUE(hit.report.from_cache);
  return hit.report.exec.statements_planned;
}

TEST(ProgramInstanceTest, FactsCommittedBetweenHits) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  // A fact commit leaves the catalog's schema alone: the instance serves
  // the next hit as it is, and reads the new rows.
  EXPECT_EQ(HitAfter(
                tb.get(),
                [&] {
                  ASSERT_TRUE(
                      tb->AddFacts("parent", {{Value("e"), Value("f")}}).ok());
                },
                "ancestor(d, W)"),
            0);
  auto d = tb->Query("ancestor(d, W)", QueryOptions::Magic().WithCache());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(AnswerSet(d->result), (std::set<std::string>{"e|", "f|"}));
}

TEST(ProgramInstanceTest, CreateIndexBetweenHitsRebuilds) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  EXPECT_GT(HitAfter(
                tb.get(),
                [&] {
                  ASSERT_TRUE(
                      tb->ExecuteSql(
                            "CREATE INDEX edb_parent_c1_ix ON edb_parent (c1)")
                          .ok());
                },
                "ancestor(a, W)"),
            0);
}

TEST(ProgramInstanceTest, DropAndRecreateTableBetweenHitsRebuilds) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  EXPECT_GT(
      HitAfter(
          tb.get(),
          [&] {
            ASSERT_TRUE(tb->ExecuteSql("DROP TABLE edb_parent").ok());
            ASSERT_TRUE(tb->ExecuteSql("CREATE TABLE edb_parent (c0 VARCHAR, "
                                       "c1 VARCHAR)")
                            .ok());
            ASSERT_TRUE(tb->ExecuteSql("INSERT INTO edb_parent VALUES "
                                       "('a', 'q'), ('q', 'r')")
                            .ok());
          },
          "ancestor(a, W)"),
      0);
  // The old instance pinned the dropped table; the rebuilt one reads the
  // new one.
  auto a = tb->Query("ancestor(a, W)", QueryOptions::Magic().WithCache());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(AnswerSet(a->result), (std::set<std::string>{"q|", "r|"}));
}

TEST(ProgramInstanceTest, StatementCacheToggledBetweenHits) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  // The planned statements own their parsed texts: the instance survives
  // the statement cache dropping them (the ASan job runs this case).
  EXPECT_EQ(HitAfter(
                tb.get(),
                [&] {
                  tb->db().set_statement_cache_enabled(false);
                  tb->db().set_statement_cache_enabled(true);
                },
                "ancestor(d, W)"),
            0);
}

TEST(ProgramInstanceTest, SessionRepinBetweenHitsRebuilds) {
  std::unique_ptr<Testbed> tb = MakeFamily();
  auto session_or = tb->OpenSession();
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(*session_or);
  const QueryOptions opts = QueryOptions::Magic().WithCache();
  auto run = [&](const std::string& goal) {
    auto cached = session->Query(goal, opts);
    EXPECT_TRUE(cached.ok()) << cached.status().ToString();
    auto fresh = session->Query(goal, QueryOptions(opts).WithCache(false));
    EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
    if (!cached.ok() || !fresh.ok()) return QueryOutcome{};
    EXPECT_EQ(AnswerSet(cached->result), AnswerSet(fresh->result)) << goal;
    return std::move(*cached);
  };
  run("ancestor(a, W)");
  EXPECT_EQ(run("ancestor(b, W)").report.exec.statements_planned, 0);
  // A committed fact moves the epoch: the session re-pins onto a new
  // Database, so its hit plans again, on the new pin.
  ASSERT_TRUE(tb->AddFacts("parent", {{Value("e"), Value("f")}}).ok());
  QueryOutcome repinned = run("ancestor(d, W)");
  EXPECT_TRUE(repinned.report.from_cache);
  EXPECT_GT(repinned.report.exec.statements_planned, 0);
  EXPECT_EQ(AnswerSet(repinned.result), (std::set<std::string>{"e|", "f|"}));
  EXPECT_EQ(run("ancestor(b, W)").report.exec.statements_planned, 0);
}

TEST(ProgramInstanceTest, IdleInstanceKeepsCapacityNotRows) {
  // Between runs an instance keeps its relations' and indexes' storage,
  // not their rows: once every goal has run, idle bytes stop growing.
  std::unique_ptr<Testbed> tb = MakeFamily();
  auto goal = datalog::ParseQuery("ancestor(a, W)");
  ASSERT_TRUE(goal.ok());
  km::CompilationStats cstats;
  auto compiled =
      tb->CompileOnly(*goal, QueryOptions::Magic(), &cstats);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::unique_ptr<lfp::ProgramInstance> instance;
  std::vector<int64_t> idle;
  for (int pass = 0; pass < 3; ++pass) {
    for (const char* text : {"ancestor(a, W)", "ancestor(x, W)"}) {
      auto bound = km::BindGoal(*compiled, *datalog::ParseQuery(text));
      ASSERT_TRUE(bound.ok());
      lfp::ExecutionStats stats;
      auto result = lfp::RunProgram(&tb->db(), compiled->program, *bound,
                                    lfp::EvalOptions{}, &instance, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(stats.statements_planned > 0, idle.empty());  // built once
      ASSERT_NE(instance, nullptr);
      idle.push_back(instance->IdleBytes());
    }
  }
  EXPECT_GT(idle.back(), 0);
  EXPECT_EQ(idle[2], idle.back());
  EXPECT_EQ(idle[3], idle.back());
}

TEST(ProgramInstanceTest, SnapshotReadingInstanceIsNeverReused) {
  // A plan that materialized a sys.* view reads that snapshot on every run,
  // so its instance must not serve another run; a plain one may, until DDL.
  std::unique_ptr<Testbed> tb = MakeFamily();
  for (const bool snapshot : {true, false}) {
    km::QueryProgram program;
    program.final_select = snapshot ? "SELECT COUNT(*) FROM sys.metrics"
                                    : "SELECT COUNT(*) FROM edb_parent";
    std::unique_ptr<lfp::ProgramInstance> instance;
    auto result = lfp::RunProgram(&tb->db(), program, program.query,
                                  lfp::EvalOptions{}, &instance, nullptr);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(instance, nullptr);
    EXPECT_EQ(instance->ReusableFor(tb->db(), program,
                                    lfp::LfpStrategy::kSemiNaive),
              !snapshot);
    EXPECT_FALSE(
        instance->ReusableFor(tb->db(), program, lfp::LfpStrategy::kNaive));
    if (!snapshot) {
      ASSERT_TRUE(tb->ExecuteSql("CREATE TABLE unrelated (c0 INT)").ok());
      EXPECT_FALSE(instance->ReusableFor(tb->db(), program,
                                         lfp::LfpStrategy::kSemiNaive));
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive optimization decision
// ---------------------------------------------------------------------------

class AdaptiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = Testbed::Create();
    ASSERT_TRUE(tb.ok());
    tb_ = std::move(*tb);
    ASSERT_TRUE(tb_->Consult(workload::AncestorRules()).ok());
    ASSERT_TRUE(
        tb_->DefineBase("parent", {DataType::kVarchar, DataType::kVarchar})
            .ok());
    auto tree = workload::MakeFullBinaryTrees(1, 9);
    ASSERT_TRUE(tb_->AddFacts("parent", tree.ToTuples()).ok());
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(AdaptiveTest, LowSelectivityQueryGetsMagic) {
  QueryOptions opts = QueryOptions::Adaptive();
  // Deep sub-tree: a tiny fraction of the data is relevant.
  auto outcome =
      tb_->Query("?- ancestor('" + workload::TreeNodeName(0, 255) + "', W).",
                 opts);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->report.compile.magic_applied);
  EXPECT_GE(outcome->report.compile.estimated_selectivity, 0.0);
  EXPECT_LT(outcome->report.compile.estimated_selectivity, 0.1);
}

TEST_F(AdaptiveTest, HighSelectivityQuerySkipsMagic) {
  QueryOptions opts = QueryOptions::Adaptive();
  // Root query: everything is relevant.
  auto outcome = tb_->Query(
      "?- ancestor('" + workload::TreeNodeName(0, 0) + "', W).", opts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->report.compile.magic_applied);
  EXPECT_GE(outcome->report.compile.estimated_selectivity, 0.6);
}

TEST_F(AdaptiveTest, AllFreeQuerySkipsMagic) {
  QueryOptions opts = QueryOptions::Adaptive();
  auto outcome = tb_->Query("?- ancestor(X, Y).", opts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->report.compile.magic_applied);
  EXPECT_EQ(outcome->report.compile.estimated_selectivity, 1.0);
}

TEST_F(AdaptiveTest, AdaptiveMatchesExplicitResults) {
  QueryOptions adaptive = QueryOptions::Adaptive();
  QueryOptions magic = QueryOptions::Magic();
  std::string goal =
      "?- ancestor('" + workload::TreeNodeName(0, 31) + "', W).";
  auto a = tb_->Query(goal, adaptive);
  auto m = tb_->Query(goal, magic);
  ASSERT_TRUE(a.ok() && m.ok());
  EXPECT_EQ(AnswerSet(a->result), AnswerSet(m->result));
}

TEST_F(AdaptiveTest, EstimatorCountsTowardOptimizationTime) {
  QueryOptions opts = QueryOptions::Adaptive();
  auto outcome = tb_->Query(
      "?- ancestor('" + workload::TreeNodeName(0, 127) + "', W).", opts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->report.compile.t_opt_us, 0);
}

}  // namespace
}  // namespace dkb::testbed
