#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "km/analysis/analyzer.h"
#include "km/analysis/stratify.h"
#include "km/compiler.h"
#include "magic/magic_sets.h"
#include "testbed/testbed.h"

namespace dkb::km::analysis {
namespace {

std::vector<datalog::Rule> Rules(const std::string& text) {
  auto program = datalog::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program->rules;
}

datalog::Atom Goal(const std::string& text) {
  auto atom = datalog::ParseQuery(text);
  EXPECT_TRUE(atom.ok());
  return *atom;
}

bool HasCode(const AnalysisResult& result, const std::string& code) {
  for (const Diagnostic& d : result.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

int CountCode(const AnalysisResult& result, const std::string& code) {
  int n = 0;
  for (const Diagnostic& d : result.diagnostics()) {
    if (d.code == code) ++n;
  }
  return n;
}

bool DefinesHead(const std::vector<datalog::Rule>& rules,
                 const std::string& pred) {
  return std::any_of(rules.begin(), rules.end(), [&](const datalog::Rule& r) {
    return r.head.predicate == pred;
  });
}

// --- Pass 1: duplicate elimination -----------------------------------------

TEST(AnalyzerTest, DuplicateRuleDroppedOnce) {
  AnalyzerInput input;
  input.rules = Rules(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
      "path(X, Y) :- edge(X, Y).\n");
  input.base_predicates = {"edge"};
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.rules.size(), 2u);
  EXPECT_EQ(CountCode(result, kCodeDuplicateRule), 1);
  // The first copy survives.
  EXPECT_EQ(result.rules[0].span.line, 1);
}

// --- Pass 2: unsatisfiable bodies ------------------------------------------

TEST(AnalyzerTest, ContradictoryIntervalIsUnsatisfiable) {
  AnalyzerInput input;
  input.rules = Rules("big(X) :- num(X), X < 3, X > 5.\n");
  input.base_predicates = {"num"};
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_TRUE(result.rules.empty());
  EXPECT_EQ(CountCode(result, kCodeUnsatisfiableBody), 1);
}

TEST(AnalyzerTest, ConstantComparisonFolds) {
  AnalyzerInput input;
  input.rules = Rules(
      "never(X) :- num(X), 1 > 2.\n"
      "always(X) :- num(X), 1 < 2.\n");
  input.base_predicates = {"num"};
  AnalysisResult result = AnalyzeProgram(input);
  ASSERT_EQ(result.rules.size(), 1u);
  EXPECT_EQ(result.rules[0].head.predicate, "always");
  EXPECT_EQ(CountCode(result, kCodeUnsatisfiableBody), 1);
}

TEST(AnalyzerTest, SameVariableDisequalityIsUnsatisfiable) {
  AnalyzerInput input;
  input.rules = Rules("odd(X) :- num(X), X != X.\n");
  input.base_predicates = {"num"};
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_TRUE(result.rules.empty());
  EXPECT_TRUE(HasCode(result, kCodeUnsatisfiableBody));
}

TEST(AnalyzerTest, EqualityPropagatesThroughUnionFind) {
  // X = Y, Y = 3, X > 4 is contradictory even though no single variable
  // carries both constraints directly.
  AnalyzerInput input;
  input.rules = Rules("p(X) :- num(X), num(Y), X = Y, Y = 3, X > 4.\n");
  input.base_predicates = {"num"};
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_TRUE(result.rules.empty());
  EXPECT_TRUE(HasCode(result, kCodeUnsatisfiableBody));
}

TEST(AnalyzerTest, EmptyPredicateCascades) {
  // `mid` is provably empty, so `top`, which depends positively on it,
  // is unsatisfiable too.
  AnalyzerInput input;
  input.rules = Rules(
      "mid(X) :- num(X), X < 0, X > 0.\n"
      "top(X) :- mid(X), num(X).\n");
  input.base_predicates = {"num"};
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_TRUE(result.rules.empty());
  EXPECT_EQ(CountCode(result, kCodeUnsatisfiableBody), 2);
}

TEST(AnalyzerTest, NegatedEmptyPredicateDoesNotCascade) {
  AnalyzerInput input;
  input.rules = Rules(
      "mid(X) :- num(X), X < 0, X > 0.\n"
      "top(X) :- num(X), not mid(X).\n");
  input.base_predicates = {"num"};
  AnalysisResult result = AnalyzeProgram(input);
  // `not mid(X)` is vacuously true over an empty mid; top must survive.
  EXPECT_TRUE(DefinesHead(result.rules, "top"));
}

TEST(AnalyzerTest, SatisfiableComparisonsKept) {
  AnalyzerInput input;
  input.rules = Rules(
      "cheap(P, S) :- part(P, S), price(S, C), C <= 100, C >= 0.\n");
  input.base_predicates = {"part", "price"};
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_TRUE(result.diagnostics().empty());
  EXPECT_EQ(result.rules.size(), 1u);
}

// --- Pass 3: definedness -----------------------------------------------------

TEST(AnalyzerTest, UndefinedPredicateIsError) {
  AnalyzerInput input;
  input.rules = Rules("foo(X) :- ghost(X).\n");
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasCode(result, kCodeUndefinedPredicate));
  EXPECT_NE(result.engine.FirstError().find("ghost"), std::string::npos);
}

// --- Pass 4: stratification --------------------------------------------------

TEST(StratifyTest, NegationInsideCliqueIsViolation) {
  std::vector<datalog::Rule> rules =
      Rules("win(X) :- edge(X, Y), not win(Y).\n");
  Stratification strata = ComputeStratification(rules);
  EXPECT_FALSE(strata.stratified());
  ASSERT_EQ(strata.violations.size(), 1u);
  EXPECT_EQ(strata.violations[0].negated, "win");
  Status status = CheckStratified(rules);
  EXPECT_EQ(status.code(), StatusCode::kSemanticError);
  EXPECT_NE(status.message().find("stratified"), std::string::npos);
}

TEST(StratifyTest, StratifiedNegationGetsHigherStratum) {
  std::vector<datalog::Rule> rules = Rules(
      "connected(X, Y) :- flight(X, Y).\n"
      "connected(X, Y) :- flight(X, Z), connected(Z, Y).\n"
      "cutoff(X, Y) :- city(X), city(Y), not connected(X, Y).\n");
  Stratification strata = ComputeStratification(rules);
  EXPECT_TRUE(strata.stratified());
  EXPECT_TRUE(CheckStratified(rules).ok());
  EXPECT_GT(strata.stratum.at("cutoff"), strata.stratum.at("connected"));
}

TEST(AnalyzerTest, UnstratifiedProgramReportsError) {
  AnalyzerInput input;
  input.rules = Rules("win(X) :- edge(X, Y), not win(Y).\n");
  input.base_predicates = {"edge"};
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(HasCode(result, kCodeUnstratified));
}

// --- Pass 5: dead rules ------------------------------------------------------

TEST(AnalyzerTest, DeadRuleEliminatedUnderGoal) {
  AnalyzerInput input;
  input.rules = Rules(
      "ancestor(X, Y) :- parent(X, Y).\n"
      "orphan(X) :- island(X).\n");
  input.base_predicates = {"parent", "island"};
  datalog::Atom goal = Goal("?- ancestor(a, W).");
  input.goal = &goal;
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_EQ(CountCode(result, kCodeDeadRule), 1);
  EXPECT_EQ(result.rules.size(), 1u);
  EXPECT_EQ(result.rules[0].head.predicate, "ancestor");
}

TEST(AnalyzerTest, RulesReachableThroughNegationAreLive) {
  AnalyzerInput input;
  input.rules = Rules(
      "safe(X) :- node(X), not bad(X).\n"
      "bad(X) :- virus(X).\n");
  input.base_predicates = {"node", "virus"};
  datalog::Atom goal = Goal("?- safe(W).");
  input.goal = &goal;
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_EQ(CountCode(result, kCodeDeadRule), 0);
  EXPECT_EQ(result.rules.size(), 2u);
}

// --- Pass 6: adornment dataflow ---------------------------------------------

TEST(AnalyzerTest, AdornmentDataflowMatchesSip) {
  AnalyzerInput input;
  input.rules = Rules(
      "ancestor(X, Y) :- parent(X, Y).\n"
      "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n");
  input.base_predicates = {"parent"};
  datalog::Atom goal = Goal("?- ancestor(a, W).");
  input.goal = &goal;
  AnalysisResult result = AnalyzeProgram(input);
  // Left-to-right SIP: the bound goal yields ancestor^bf; the recursive
  // call sees Z bound through parent, so bf is the only adornment.
  EXPECT_EQ(result.adornments,
            (std::set<std::pair<std::string, std::string>>{
                {"ancestor", "bf"}}));
  EXPECT_FALSE(HasCode(result, kCodeInconsistentAdornment));
}

TEST(AnalyzerTest, AllFreeReachableWarnsInconsistentAdornment) {
  AnalyzerInput input;
  input.rules = Rules(
      "needs_helper(X) :- helper(Y), pair(X, Y).\n"
      "helper(Y) :- item(Y).\n");
  input.base_predicates = {"item", "pair"};
  datalog::Atom goal = Goal("?- needs_helper(b).");
  input.goal = &goal;
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_EQ(CountCode(result, kCodeInconsistentAdornment), 1);
  EXPECT_TRUE(result.adornments.count({"helper", "f"}) > 0);
}

// Regression: a goal whose arity disagrees with the rule head must not be
// walked by the adornment dataflow (the type checker owns that error).
TEST(AnalyzerTest, GoalArityMismatchDoesNotCrashAdornmentDataflow) {
  AnalyzerInput input;
  input.rules = Rules(
      "ancestor(X, Y) :- parent(X, Y).\n"
      "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n");
  input.base_predicates = {"parent"};
  datalog::Atom goal = Goal("?- ancestor(adam, W, Extra).");
  input.goal = &goal;
  AnalysisResult result = AnalyzeProgram(input);
  // The mismatched caller reaches no rule; only the goal's own adornment
  // is recorded.
  EXPECT_EQ(result.adornments.size(), 1u);
}

// --- Pass 7: cardinality -----------------------------------------------------

TEST(AnalyzerTest, CardinalityUsesBaseCountsAndEstimatesDerived) {
  AnalyzerInput input;
  input.rules = Rules("pair(X, Y) :- left(X), right(Y).\n");
  input.base_predicates = {"left", "right"};
  input.base_cardinalities = {{"left", 10}, {"right", 7}};
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_EQ(result.cardinality.at("left").base_tuples, 10);
  EXPECT_TRUE(result.cardinality.at("left").is_base);
  const PredicateCardinality& pair = result.cardinality.at("pair");
  EXPECT_FALSE(pair.is_base);
  EXPECT_EQ(pair.num_rules, 1);
  EXPECT_GE(pair.est_tuples, 70.0);  // product of the two base sizes
}

// --- goal_provably_empty -----------------------------------------------------

TEST(AnalyzerTest, GoalProvablyEmptyWhenAllDefinitionsPruned) {
  AnalyzerInput input;
  input.rules = Rules("never(X) :- num(X), X < 0, X > 0.\n");
  input.base_predicates = {"num"};
  datalog::Atom goal = Goal("?- never(W).");
  input.goal = &goal;
  AnalysisResult result = AnalyzeProgram(input);
  EXPECT_TRUE(result.goal_provably_empty);
  EXPECT_TRUE(result.rules.empty());
}

// --- Magic-sets interaction --------------------------------------------------

// The analyzer's achievable-adornment set must be a superset of what the
// rewrite generates: filtering with it must not change the output at all.
TEST(AnalyzerTest, AdornmentFilterIsExactForOwnRules) {
  for (const char* program_text :
       {"ancestor(X, Y) :- parent(X, Y).\n"
        "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n",
        "sg(X, Y) :- flat(X, Y).\n"
        "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n"}) {
    std::vector<datalog::Rule> rules = Rules(program_text);
    AnalyzerInput input;
    input.rules = rules;
    input.base_predicates = {"parent", "flat", "up", "down"};
    datalog::Atom goal =
        Goal(rules[0].head.predicate == "sg" ? "?- sg(a, W)."
                                             : "?- ancestor(a, W).");
    input.goal = &goal;
    AnalysisResult analyzed = AnalyzeProgram(input);
    std::set<std::string> derived = {rules[0].head.predicate};

    auto unfiltered =
        magic::ApplyGeneralizedMagicSets(rules, goal, derived);
    ASSERT_TRUE(unfiltered.ok());
    magic::AdornmentFilter filter;
    filter.allowed = analyzed.adornments;
    auto filtered = magic::ApplyGeneralizedMagicSets(
        rules, goal, derived, magic::MagicVariant::kGeneralized, &filter);
    ASSERT_TRUE(filtered.ok());
    EXPECT_EQ(unfiltered->rules, filtered->rules) << program_text;
    EXPECT_EQ(unfiltered->adorned_query, filtered->adorned_query);
  }
}

// Regression: pruning an unsatisfiable rule removes the only path to a
// predicate, and the magic output must shrink accordingly — no adorned or
// magic rules for the unreachable predicate.
TEST(AnalyzerTest, MagicOutputShrinksWhenDeadAdornmentsArePruned) {
  std::vector<datalog::Rule> rules = Rules(
      "reach(X, Y) :- edge(X, Y).\n"
      "reach(X, Y) :- detour(X, Y), 1 > 2.\n"
      "detour(X, Y) :- edge(X, Z), reach(Z, Y).\n");
  datalog::Atom goal = Goal("?- reach(a, W).");
  std::set<std::string> derived = {"reach", "detour"};

  auto unpruned = magic::ApplyGeneralizedMagicSets(rules, goal, derived);
  ASSERT_TRUE(unpruned.ok());
  EXPECT_GT(unpruned->adorned_predicates.count("detour__bf"), 0u);

  AnalyzerInput input;
  input.rules = rules;
  input.base_predicates = {"edge"};
  input.goal = &goal;
  AnalysisResult analyzed = AnalyzeProgram(input);
  EXPECT_TRUE(HasCode(analyzed, kCodeUnsatisfiableBody));
  EXPECT_TRUE(HasCode(analyzed, kCodeDeadRule));  // detour is now dead
  ASSERT_EQ(analyzed.rules.size(), 1u);

  magic::AdornmentFilter filter;
  filter.allowed = analyzed.adornments;
  auto pruned = magic::ApplyGeneralizedMagicSets(
      analyzed.rules, goal, {"reach"}, magic::MagicVariant::kGeneralized,
      &filter);
  ASSERT_TRUE(pruned.ok());
  EXPECT_LT(pruned->rules.size(), unpruned->rules.size());
  EXPECT_TRUE(pruned->adorned_predicates.count("detour__bf") == 0u);
  for (const datalog::Rule& rule : pruned->rules) {
    EXPECT_EQ(rule.head.predicate.find("detour"), std::string::npos)
        << rule.ToString();
    for (const datalog::Atom& atom : rule.body) {
      EXPECT_EQ(atom.predicate.find("detour"), std::string::npos)
          << rule.ToString();
    }
  }
}

// --- Compiler integration ----------------------------------------------------

class AnalysisCompilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = testbed::Testbed::Create();
    ASSERT_TRUE(tb.ok());
    tb_ = std::move(*tb);
  }

  Result<CompiledQuery> Compile(const std::string& goal,
                                bool magic = false) {
    testbed::QueryOptions opts = magic ? testbed::QueryOptions::Magic()
                                       : testbed::QueryOptions::SemiNaive();
    return tb_->CompileOnly(Goal(goal), opts, &stats_);
  }

  std::unique_ptr<testbed::Testbed> tb_;
  CompilationStats stats_;
};

// Acceptance check: an unsatisfiable rule is still *relevant* (the PCG
// reaches it) but must never make it into the generated program.
TEST_F(AnalysisCompilerTest, UnsatisfiableRuleNeverReachesCodegen) {
  ASSERT_TRUE(tb_->Consult("ancestor(X, Y) :- parent(X, Y).\n"
                           "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n"
                           "ancestor(X, Y) :- parent(X, Y), 1 > 2.\n"
                           "parent(a, b).\nparent(b, c).\n")
                  .ok());
  auto compiled = Compile("?- ancestor(a, W).");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  // Relevance extraction keeps it...
  EXPECT_EQ(stats_.rules_relevant, 3);
  // ...the analyzer prunes it...
  EXPECT_EQ(stats_.rules_pruned, 1);
  bool w004 = false;
  for (const Diagnostic& d : compiled->analysis.diagnostics()) {
    if (d.code == kCodeUnsatisfiableBody) w004 = true;
  }
  EXPECT_TRUE(w004);
  // ...and no compiled node evaluates it.
  auto has_const_const_builtin = [](const datalog::Rule& rule) {
    for (const datalog::Atom& atom : rule.body) {
      if (atom.is_builtin() && atom.args.size() == 2 &&
          atom.args[0].is_constant() && atom.args[1].is_constant()) {
        return true;
      }
    }
    return false;
  };
  for (const auto& node : compiled->program.nodes) {
    for (const CompiledRule& compiled_rule : node.exit_rules) {
      EXPECT_FALSE(has_const_const_builtin(compiled_rule.rule))
          << compiled_rule.rule.ToString();
    }
    for (const datalog::Rule& rule : node.recursive_rules) {
      EXPECT_FALSE(has_const_const_builtin(rule)) << rule.ToString();
    }
  }
  // Semantics unchanged: the query still answers through the live rules.
  auto outcome = tb_->Query("?- ancestor(a, W).");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.rows.size(), 2u);  // b, c
}

TEST_F(AnalysisCompilerTest, CleanProgramCompilesWithoutDiagnostics) {
  // The analyzer must not second-guess a valid program: no diagnostics, no
  // pruning, and the analysis byproducts (strata, cardinality) are filled
  // in for downstream consumers.
  ASSERT_TRUE(tb_->Consult("tc(X, Y) :- edge(X, Y).\n"
                           "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
                           "edge(a, b).\nedge(b, c).\n")
                  .ok());
  auto compiled = Compile("?- tc(a, W).");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(stats_.rules_pruned, 0);
  EXPECT_TRUE(compiled->analysis.diagnostics().empty());
  EXPECT_EQ(compiled->analysis.strata.stratum.count("tc"), 1u);
  const PredicateCardinality& edge = compiled->analysis.cardinality.at("edge");
  EXPECT_TRUE(edge.is_base);
  EXPECT_EQ(edge.base_tuples, 2);
  EXPECT_GE(compiled->analysis.cardinality.at("tc").est_tuples, 2.0);
}

TEST_F(AnalysisCompilerTest, ProvablyEmptyGoalStillCompiles) {
  // When every definition of the goal is pruned the compiler falls back to
  // the unpruned rule set: the query must keep compiling and return no rows
  // rather than erroring out.
  ASSERT_TRUE(tb_->Consult("never(X) :- num(X), X < 0, X > 0.\n"
                           "num(1).\n")
                  .ok());
  auto outcome = tb_->Query("?- never(W).");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->result.rows.empty());
}

TEST_F(AnalysisCompilerTest, MagicPathAlsoPrunes) {
  ASSERT_TRUE(tb_->Consult("ancestor(X, Y) :- parent(X, Y).\n"
                           "ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n"
                           "ancestor(X, Y) :- parent(X, Y), 2 < 1.\n"
                           "parent(a, b).\nparent(b, c).\n")
                  .ok());
  auto compiled = Compile("?- ancestor(a, W).", /*magic=*/true);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(stats_.magic_applied);
  EXPECT_EQ(stats_.rules_pruned, 1);
  testbed::QueryOptions opts = testbed::QueryOptions::Magic();
  auto outcome = tb_->Query(Goal("?- ancestor(a, W)."), opts);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.rows.size(), 2u);
}

TEST_F(AnalysisCompilerTest, LintWorkspaceReportsWorkspaceProblems) {
  ASSERT_TRUE(tb_->Consult("num(1).\n").ok());
  ASSERT_TRUE(tb_->AddRule("p(X) :- num(X), X < 0, X > 0.").ok());
  ASSERT_TRUE(tb_->AddRule("q(X) :- num(X).").ok());
  auto diags = tb_->LintWorkspace();
  ASSERT_TRUE(diags.ok()) << diags.status().ToString();
  bool w004 = false;
  for (const Diagnostic& d : *diags) {
    if (d.code == kCodeUnsatisfiableBody) w004 = true;
  }
  EXPECT_TRUE(w004);
}

}  // namespace
}  // namespace dkb::km::analysis
