#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "datalog/parser.h"
#include "km/compiler.h"
#include "testbed/testbed.h"
#include "workload/queries.h"

namespace dkb::km {
namespace {

datalog::Atom Goal(const std::string& text) {
  auto atom = datalog::ParseQuery(text);
  EXPECT_TRUE(atom.ok());
  return *atom;
}

class CompilerTest : public ::testing::Test {
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

TEST_F(CompilerTest, ProgramStructureForAncestor) {
  ASSERT_TRUE(tb_->Consult(workload::AncestorRules() + "parent(a, b).\n")
                  .ok());
  auto compiled = Compile("?- ancestor(a, W).");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const QueryProgram& program = compiled->program;
  // One clique node for ancestor.
  ASSERT_EQ(program.nodes.size(), 1u);
  EXPECT_TRUE(program.nodes[0].is_clique);
  EXPECT_EQ(program.nodes[0].predicates,
            (std::vector<std::string>{"ancestor"}));
  EXPECT_EQ(program.nodes[0].exit_rules.size(), 1u);
  EXPECT_EQ(program.nodes[0].recursive_rules.size(), 1u);
  // Bindings for both predicates; correct table names.
  EXPECT_EQ(program.bindings.at("ancestor").table, "idb_ancestor");
  EXPECT_EQ(program.bindings.at("parent").table, "edb_parent");
  EXPECT_TRUE(program.bindings.at("parent").is_base);
  // The derived relation's layout, which each run builds its idb_ancestor
  // from: one column per argument, typed as inferred.
  const PredicateBinding& derived = program.bindings.at("ancestor");
  EXPECT_FALSE(derived.is_base);
  EXPECT_EQ(derived.RelationSchema(),
            Schema({{"c0", DataType::kVarchar}, {"c1", DataType::kVarchar}}));
  // Final select filters the bound argument, a parameter the run binds to
  // the goal's constant, and names the variable.
  EXPECT_EQ(program.final_select,
            "SELECT DISTINCT c1 AS W FROM idb_ancestor WHERE c0 = ?");
  EXPECT_EQ(InlineParameters(program.final_select,
                             QueryParameters(program.query)),
            "SELECT DISTINCT c1 AS W FROM idb_ancestor WHERE c0 = 'a'");
  EXPECT_EQ(program.answer_columns, (std::vector<std::string>{"W"}));
  EXPECT_FALSE(program.boolean_query);
}

TEST_F(CompilerTest, BooleanQueryUsesCount) {
  ASSERT_TRUE(tb_->Consult(workload::AncestorRules() + "parent(a, b).\n")
                  .ok());
  auto compiled = Compile("?- ancestor(a, b).");
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->program.boolean_query);
  EXPECT_NE(compiled->program.final_select.find("SELECT COUNT(*)"),
            std::string::npos);
}

TEST_F(CompilerTest, RepeatedQueryVariableBecomesEquality) {
  ASSERT_TRUE(tb_->Consult(workload::AncestorRules() + "parent(a, b).\n")
                  .ok());
  auto compiled = Compile("?- ancestor(X, X).");
  ASSERT_TRUE(compiled.ok());
  EXPECT_NE(compiled->program.final_select.find("c1 = c0"),
            std::string::npos);
  EXPECT_EQ(compiled->program.answer_columns.size(), 1u);
}

TEST_F(CompilerTest, MagicCompilationProducesTwoCliques) {
  ASSERT_TRUE(tb_->Consult(workload::AncestorRules() + "parent(a, b).\n")
                  .ok());
  auto compiled = Compile("?- ancestor(a, W).", /*magic=*/true);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(stats_.magic_applied);
  const QueryProgram& program = compiled->program;
  EXPECT_EQ(program.query.predicate, "ancestor__bf");
  int cliques = 0;
  for (const auto& node : program.nodes) {
    if (node.is_clique) ++cliques;
  }
  EXPECT_EQ(cliques, 2);  // m_ancestor__bf clique, then ancestor__bf
  // The magic clique must be ordered before the modified clique.
  EXPECT_EQ(program.nodes.front().predicates[0], "m_ancestor__bf");
}

TEST_F(CompilerTest, QueryOverBasePredicateSkipsEvaluation) {
  ASSERT_TRUE(tb_->Consult("parent(a, b).\n").ok());
  auto compiled = Compile("?- parent(a, X).");
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->program.nodes.empty());
  EXPECT_NE(compiled->program.final_select.find("edb_parent"),
            std::string::npos);
}

TEST_F(CompilerTest, WorkspaceStoredAlternatingClosure) {
  // Exercises the §4.2 steps 1.3-1.5 loop: extraction from the Stored DKB
  // surfaces a predicate (c) for which the *workspace* holds an additional
  // rule, which must be pulled in by the next round of the closure.
  ASSERT_TRUE(tb_->Consult("parent(x, y).\nparent2(x, z).\n").ok());
  ASSERT_TRUE(tb_->AddRule("c(X,Y) :- parent(X,Y).").ok());
  ASSERT_TRUE(tb_->AddRule("b(X,Y) :- c(X,Y).").ok());
  ASSERT_TRUE(tb_->UpdateStoredDkb().ok());
  tb_->ClearWorkspace();
  // New session: a depends on stored b; c gains a new workspace rule.
  ASSERT_TRUE(tb_->AddRule("a(X,Y) :- b(X,Y).").ok());
  ASSERT_TRUE(tb_->AddRule("c(X,Y) :- parent2(X,Y).").ok());

  auto compiled = Compile("?- a(x, W).");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(stats_.rules_relevant, 4);  // a(ws), b(st), c(st), c(ws)
  EXPECT_EQ(stats_.rules_extracted_stored, 2);
  for (const char* p : {"a", "b", "c"}) {
    EXPECT_EQ(compiled->program.bindings.count(p), 1u) << p;
  }
  // And the workspace c-rule's contribution reaches the answers.
  auto outcome = tb_->Query("?- a(x, W).");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.rows.size(), 2u);  // y via parent, z via parent2
}

TEST_F(CompilerTest, IrrelevantRulesAreNotCompiled) {
  ASSERT_TRUE(tb_->Consult("parent(a, b).\n"
                           "wanted(X,Y) :- parent(X,Y).\n"
                           "unrelated(X,Y) :- parent(X,Y).\n")
                  .ok());
  auto compiled = Compile("?- wanted(a, W).");
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(stats_.rules_relevant, 1);
  EXPECT_EQ(compiled->program.bindings.count("unrelated"), 0u);
}

TEST_F(CompilerTest, ArityMismatchInQueryFails) {
  ASSERT_TRUE(tb_->Consult(workload::AncestorRules() + "parent(a, b).\n")
                  .ok());
  auto compiled = Compile("?- ancestor(a, b, c).");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kSemanticError);
}

TEST_F(CompilerTest, QueryConstantTypeMismatchFails) {
  ASSERT_TRUE(tb_->Consult(workload::AncestorRules() + "parent(a, b).\n")
                  .ok());
  auto compiled = Compile("?- ancestor(42, W).");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kTypeError);
}

TEST_F(CompilerTest, UnknownQueryPredicateFails) {
  auto compiled = Compile("?- ghost(a, W).");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kSemanticError);
}

TEST_F(CompilerTest, AllSqlTextsParse) {
  ASSERT_TRUE(tb_->Consult(workload::SameGenerationRules() +
                           "flat(g, g).\nup(a, g).\ndown(g, a).\n")
                  .ok());
  auto compiled = Compile("?- sg(a, W).", /*magic=*/true);
  ASSERT_TRUE(compiled.ok());
  // t_comp parsed every generated text without error; double-check here.
  for (const std::string& sql : compiled->program.AllSqlTexts()) {
    EXPECT_FALSE(sql.empty());
  }
  EXPECT_GT(stats_.t_comp_us, 0);
}

/// Asserts that two programs agree in every part evaluation reads. The
/// programs take their goals' constants as parameters, so a seed fact is
/// compared by predicate and arity: a run binds its arguments.
void ExpectSamePrograms(const QueryProgram& a, const QueryProgram& b) {
  EXPECT_EQ(a.query.predicate, b.query.predicate);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    ASSERT_EQ(a.nodes[i].exit_rules.size(), b.nodes[i].exit_rules.size());
    for (size_t r = 0; r < a.nodes[i].exit_rules.size(); ++r) {
      const datalog::Rule& ra = a.nodes[i].exit_rules[r].rule;
      const datalog::Rule& rb = b.nodes[i].exit_rules[r].rule;
      if (ra.body.empty()) {
        EXPECT_TRUE(rb.body.empty()) << rb.ToString();
        EXPECT_EQ(ra.head.predicate, rb.head.predicate);
        EXPECT_EQ(ra.head.arity(), rb.head.arity());
      } else {
        EXPECT_EQ(ra, rb) << ra.ToString();
      }
    }
    EXPECT_EQ(a.nodes[i].recursive_rules, b.nodes[i].recursive_rules);
  }
  EXPECT_EQ(a.AllSqlTexts(), b.AllSqlTexts());
  EXPECT_EQ(a.final_select, b.final_select);
  EXPECT_EQ(a.answer_columns, b.answer_columns);
  EXPECT_EQ(a.boolean_query, b.boolean_query);
}

TEST_F(CompilerTest, BindGoalEqualsCompilingTheGoal) {
  ASSERT_TRUE(tb_->Consult(workload::SameGenerationRules() +
                           "flat(g, g).\nup(a, g).\ndown(g, a).\n")
                  .ok());
  for (bool magic : {false, true}) {
    SCOPED_TRACE(magic ? "magic" : "plain");
    const std::pair<const char*, const char*> goals[] = {
        {"sg(a, W)", "sg(zz, W)"},
        {"sg(W, a)", "sg(W, zz)"},
        {"sg(a, g)", "sg(zz, a)"}};
    for (const auto& [goal, other] : goals) {
      SCOPED_TRACE(goal);
      auto first = Compile(goal, magic);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      auto fresh = Compile(other, magic);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(first->summary.magic_applied, magic);
      // One program serves both goals; binding the other goal yields the
      // query atom compiling it yields, whose constants a run binds.
      ExpectSamePrograms(first->program, fresh->program);
      auto bound = BindGoal(*first, Goal(other));
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_EQ(*bound, fresh->program.query);
      EXPECT_EQ(QueryParameters(*bound), QueryParameters(Goal(other)));
      // The program's SQL carries no constant of the goal it was compiled
      // for.
      for (const std::string& sql : first->program.AllSqlTexts()) {
        EXPECT_EQ(sql.find("'a'"), std::string::npos) << sql;
      }
    }
  }
}

TEST_F(CompilerTest, BindGoalRefusesAnotherForm) {
  ASSERT_TRUE(tb_->Consult(workload::AncestorRules() + "parent(a, b).\n")
                  .ok());
  auto compiled = Compile("ancestor(a, W)", /*magic=*/true);
  ASSERT_TRUE(compiled.ok());
  for (const char* goal : {"ancestor(W, a)", "ancestor(a, V)",
                           "ancestor(1, W)", "ancestor(a, b)"}) {
    EXPECT_EQ(BindGoal(*compiled, Goal(goal)).status().code(),
              StatusCode::kInvalidArgument)
        << goal;
  }
}

TEST_F(CompilerTest, NonCompiledStorageCompilesIdentically) {
  testbed::TestbedOptions options;
  options.stored.compiled_rule_storage = false;
  auto tb2_or = testbed::Testbed::Create(options);
  ASSERT_TRUE(tb2_or.ok());
  auto tb2 = std::move(*tb2_or);
  const std::string program =
      "a(X,Y) :- b(X,Y).\nb(X,Y) :- parent(X,Y).\nparent(x, y).\n";
  ASSERT_TRUE(tb2->Consult(program).ok());
  ASSERT_TRUE(tb2->UpdateStoredDkb().ok());
  tb2->ClearWorkspace();
  testbed::QueryOptions opts;
  CompilationStats stats;
  auto compiled = tb2->CompileOnly(Goal("?- a(x, W)."), opts, &stats);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(stats.rules_relevant, 2);
}

}  // namespace
}  // namespace dkb::km
