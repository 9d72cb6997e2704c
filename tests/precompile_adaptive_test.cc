#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
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
      {"native", lfp::LfpStrategy::kNative},
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
  EXPECT_EQ(renamed.compiled.program.answer_columns,
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
