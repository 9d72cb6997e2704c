#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.h"
#include "km/stored_dkb.h"
#include "km/update.h"
#include "km/workspace.h"
#include "rdbms/database.h"

namespace dkb::km {
namespace {

datalog::Rule R(const std::string& text) {
  auto rule = datalog::ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return *rule;
}

class StoredDkbTest : public ::testing::Test {
 protected:
  void Init(StoredDkb::Options options = {}) {
    stored_ = std::make_unique<StoredDkb>(&db_, options);
    ASSERT_TRUE(stored_->Initialize().ok());
  }

  /// Commits rules through the update processor.
  void Commit(const std::vector<std::string>& rule_texts) {
    Workspace ws;
    for (const std::string& text : rule_texts) {
      ASSERT_TRUE(ws.AddRule(R(text)).ok());
    }
    UpdateProcessor proc(stored_.get());
    auto stats = proc.Update(ws);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }

  Database db_;
  std::unique_ptr<StoredDkb> stored_;
};

TEST_F(StoredDkbTest, InitializeCreatesRelations) {
  Init();
  for (const char* table :
       {"idbrel", "idbcol", "rulesource", "reachablepreds", "edbrel",
        "edbcol"}) {
    EXPECT_TRUE(db_.catalog().HasTable(table)) << table;
  }
}

TEST_F(StoredDkbTest, DefineBaseAndInsertFacts) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "parent", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  EXPECT_TRUE(stored_->HasBasePredicate("parent"));
  EXPECT_FALSE(stored_->HasBasePredicate("nope"));
  ASSERT_TRUE(
      stored_->InsertFacts("parent", {{Value("a"), Value("b")}}).ok());
  auto count = db_.QueryCount("SELECT COUNT(*) FROM edb_parent");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1);
  // Redefinition fails; inserting into unknown predicate fails.
  EXPECT_FALSE(stored_->DefineBasePredicate("parent", {}).ok());
  EXPECT_FALSE(stored_->InsertFacts("nope", {}).ok());
  // Type-violating fact fails.
  EXPECT_FALSE(
      stored_->InsertFacts("parent", {{Value(int64_t{1}), Value("b")}})
          .ok());
  ASSERT_TRUE(stored_->ClearFacts("parent").ok());
  EXPECT_EQ(*db_.QueryCount("SELECT COUNT(*) FROM edb_parent"), 0);
}

TEST_F(StoredDkbTest, EdbDictionaryRoundTrip) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "weight", {DataType::kVarchar, DataType::kInteger})
                  .ok());
  auto dict = stored_->ReadEdbDictionary({"weight", "ghost"});
  ASSERT_TRUE(dict.ok());
  ASSERT_EQ(dict->size(), 1u);
  EXPECT_EQ(dict->at("weight"),
            (PredicateTypes{DataType::kVarchar, DataType::kInteger}));
}

TEST_F(StoredDkbTest, StoreRuleSourceDedupes) {
  Init();
  auto first = stored_->StoreRuleSource(R("p(X,Y) :- e(X,Y)."));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  auto second = stored_->StoreRuleSource(R("p(X,Y) :- e(X,Y)."));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second);
  auto n = stored_->NumStoredRules();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
}

TEST_F(StoredDkbTest, CommitPopulatesDictionariesAndClosure) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "e", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  Commit({"a(X,Y) :- b(X,Y).", "b(X,Y) :- e(X,Y)."});
  // IDB dictionary has both predicates.
  auto dict = stored_->ReadIdbDictionary({"a", "b"});
  ASSERT_TRUE(dict.ok());
  EXPECT_EQ(dict->size(), 2u);
  // Compiled form: a reaches b and e.
  auto reach = stored_->StoredReachable({"a"});
  ASSERT_TRUE(reach.ok());
  EXPECT_EQ(*reach, (std::set<std::string>{"b", "e"}));
  // Upstream of b is a.
  auto up = stored_->StoredUpstream({"b"});
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(*up, (std::set<std::string>{"a"}));
}

TEST_F(StoredDkbTest, ExtractRelevantRulesCompiledForm) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "e", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  Commit({"a(X,Y) :- b(X,Y).", "b(X,Y) :- e(X,Y).",
          "other(X,Y) :- e(X,Y)."});
  auto rules = stored_->ExtractRelevantRules({"a"});
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_EQ(rules->size(), 2u);  // a's and b's rules, not other's
  // Extraction for the inner predicate only returns its rule.
  auto inner = stored_->ExtractRelevantRules({"b"});
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner->size(), 1u);
}

TEST_F(StoredDkbTest, ExtractionUsesIndexes) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "e", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  // 60 disconnected rules + one small relevant chain.
  std::vector<std::string> rules = {"a(X,Y) :- b(X,Y).",
                                    "b(X,Y) :- e(X,Y)."};
  for (int i = 0; i < 60; ++i) {
    rules.push_back("f" + std::to_string(i) + "(X,Y) :- e(X,Y).");
  }
  Commit(rules);
  db_.stats().Reset();
  auto extracted = stored_->ExtractRelevantRules({"a"});
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted->size(), 2u);
  // The extraction query must not scan the full rulesource relation: index
  // probes only (plus whatever the UNION branch scans — also indexed).
  EXPECT_EQ(db_.stats().rows_scanned, 0);
  EXPECT_GT(db_.stats().index_probes, 0);
}

TEST_F(StoredDkbTest, NonCompiledModeWalksFrontier) {
  Init(StoredDkb::Options{.compiled_rule_storage = false,
                          .index_edb_first_column = true});
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "e", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  Commit({"a(X,Y) :- b(X,Y).", "b(X,Y) :- c(X,Y).", "c(X,Y) :- e(X,Y).",
          "zz(X,Y) :- e(X,Y)."});
  // reachablepreds stays empty in this mode.
  EXPECT_EQ(*db_.QueryCount("SELECT COUNT(*) FROM reachablepreds"), 0);
  auto rules = stored_->ExtractRelevantRules({"a"});
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 3u);
}

TEST_F(StoredDkbTest, CompiledAndNonCompiledExtractionAgree) {
  // Build the same rule base in both modes and compare extraction results.
  std::vector<std::string> rules = {
      "a(X,Y) :- b(X,Y).",      "a(X,Y) :- c(X,Y).",
      "b(X,Y) :- d(X,Y).",      "c(X,Y) :- e(X,Y).",
      "d(X,Y) :- e(X,Y).",      "loner(X,Y) :- e(X,Y).",
  };
  std::set<std::string> compiled_texts;
  std::set<std::string> walked_texts;
  {
    Init();
    ASSERT_TRUE(stored_
                    ->DefineBasePredicate(
                        "e", {DataType::kVarchar, DataType::kVarchar})
                    .ok());
    Commit(rules);
    auto extracted = stored_->ExtractRelevantRules({"a"});
    ASSERT_TRUE(extracted.ok());
    for (const auto& rule : *extracted) compiled_texts.insert(rule.ToString());
  }
  Database fresh;
  StoredDkb walked(&fresh, StoredDkb::Options{false, true});
  ASSERT_TRUE(walked.Initialize().ok());
  ASSERT_TRUE(walked
                  .DefineBasePredicate(
                      "e", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  Workspace ws;
  for (const std::string& text : rules) ASSERT_TRUE(ws.AddRule(R(text)).ok());
  UpdateProcessor proc(&walked);
  ASSERT_TRUE(proc.Update(ws).ok());
  auto extracted = walked.ExtractRelevantRules({"a"});
  ASSERT_TRUE(extracted.ok());
  for (const auto& rule : *extracted) walked_texts.insert(rule.ToString());
  EXPECT_EQ(compiled_texts, walked_texts);
  EXPECT_EQ(compiled_texts.size(), 5u);
}

TEST_F(StoredDkbTest, IncrementalUpdateExtendsUpstreamReachability) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "e", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "g", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  // First commit: s depends on p; w is an unrelated branch under s.
  Commit({"s(X,Y) :- p(X,Y).", "s(X,Y) :- w(X,Y).", "p(X,Y) :- e(X,Y).",
          "w(X,Y) :- e(X,Y)."});
  // Second commit adds a new rule giving p a new dependency on q. Only the
  // heads p and q and p's stored upstream s are affected; w is not.
  Workspace ws;
  ASSERT_TRUE(ws.AddRule(R("p(X,Y) :- q(X,Y).")).ok());
  ASSERT_TRUE(ws.AddRule(R("q(X,Y) :- g(X,Y).")).ok());
  UpdateProcessor proc(stored_.get());
  auto stats = proc.Update(ws);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->affected_preds, 3);
  auto reach = stored_->StoredReachable({"s"});
  ASSERT_TRUE(reach.ok());
  // s must now reach q and g (through p) while keeping w and e.
  EXPECT_EQ(*reach,
            (std::set<std::string>{"p", "q", "w", "e", "g"}));
}

TEST_F(StoredDkbTest, UpdateStatsBreakdownPopulated) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "e", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  Workspace ws;
  ASSERT_TRUE(ws.AddRule(R("a(X,Y) :- b(X,Y).")).ok());
  ASSERT_TRUE(ws.AddRule(R("b(X,Y) :- e(X,Y).")).ok());
  UpdateProcessor proc(stored_.get());
  auto stats = proc.Update(ws);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rules_stored, 2);
  EXPECT_EQ(stats->composite_rules, 2);
  EXPECT_EQ(stats->closure_edges, 3);  // a->b, a->e, b->e
  EXPECT_EQ(stats->affected_preds, 2);
  EXPECT_GE(stats->total_us(), 0);
}

// The k-th rule update of the write_mix workload's shape hangs a fresh head
// off a stored closure. Every earlier wr<j> reaches only the body predicates
// wanc and wpar, so it gains nothing from the update: the composite is the
// new rule plus wanc's two rules, and only the new head is written, however
// many such rules are stored.
TEST_F(StoredDkbTest, WriteMixUpdatesPayPerAffectedPredicate) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "wpar", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  Commit({"wanc(X, Y) :- wpar(X, Y).",
          "wanc(X, Y) :- wpar(X, Z), wanc(Z, Y)."});
  UpdateProcessor proc(stored_.get());
  for (int k = 1; k <= 200; ++k) {
    SCOPED_TRACE("wr" + std::to_string(k));
    Workspace ws;
    ASSERT_TRUE(ws.AddRule(R("wr" + std::to_string(k) +
                             "(X, Y) :- wanc(X, Z), wpar(Z, Y)."))
                    .ok());
    auto stats = proc.Update(ws);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->rules_stored, 1);
    ASSERT_EQ(stats->composite_rules, 3);
    ASSERT_EQ(stats->closure_edges, 4);
    ASSERT_EQ(stats->affected_preds, 1);
  }
  EXPECT_EQ(*stored_->NumStoredRules(), 202);
}

TEST_F(StoredDkbTest, UpdateWithUnknownBasePredicateFails) {
  Init();
  Workspace ws;
  ASSERT_TRUE(ws.AddRule(R("a(X,Y) :- ghost(X,Y).")).ok());
  UpdateProcessor proc(stored_.get());
  auto stats = proc.Update(ws);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kSemanticError);
}

TEST_F(StoredDkbTest, UpdateIsIdempotent) {
  Init();
  ASSERT_TRUE(stored_
                  ->DefineBasePredicate(
                      "e", {DataType::kVarchar, DataType::kVarchar})
                  .ok());
  Commit({"a(X,Y) :- e(X,Y)."});
  Commit({"a(X,Y) :- e(X,Y)."});  // same rule again
  EXPECT_EQ(*stored_->NumStoredRules(), 1);
  EXPECT_EQ(*db_.QueryCount(
                "SELECT COUNT(*) FROM reachablepreds WHERE frompredname = "
                "'a'"),
            1);
}

}  // namespace
}  // namespace dkb::km
