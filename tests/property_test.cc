// Differential property tests: randomized (but seeded, reproducible)
// stratified Datalog programs and data, evaluated under every combination
// of LFP strategy and optimization; all evaluators must agree exactly.
//
// Program shape: binary EDB relations over a small node domain; IDB
// predicates defined by chain-shaped rule bodies (which guarantees safety),
// referencing earlier IDB predicates or themselves (single-predicate
// recursion), optionally guarded by a negated atom on a strictly lower
// stratum.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "testbed/testbed.h"

namespace dkb {
namespace {

using lfp::LfpStrategy;

struct GeneratedCase {
  std::string program;
  std::string query;
};

GeneratedCase GenerateCase(uint64_t seed) {
  Rng rng(seed);
  GeneratedCase out;

  const int num_nodes = static_cast<int>(rng.Uniform(4, 10));
  const int num_edb = static_cast<int>(rng.Uniform(1, 3));
  auto node = [](int64_t i) { return "n" + std::to_string(i); };

  // EDB relations: random sparse graphs.
  for (int e = 0; e < num_edb; ++e) {
    int edges = static_cast<int>(rng.Uniform(num_nodes, 3 * num_nodes));
    for (int i = 0; i < edges; ++i) {
      out.program += "e" + std::to_string(e) + "(" +
                     node(rng.Uniform(0, num_nodes - 1)) + ", " +
                     node(rng.Uniform(0, num_nodes - 1)) + ").\n";
    }
  }

  // IDB predicates p0..pk, stratified by index.
  const int num_idb = static_cast<int>(rng.Uniform(1, 4));
  for (int p = 0; p < num_idb; ++p) {
    int num_rules = static_cast<int>(rng.Uniform(1, 3));
    bool has_base_rule = false;
    for (int r = 0; r < num_rules; ++r) {
      int body_len = static_cast<int>(rng.Uniform(1, 3));
      std::string head = "p" + std::to_string(p) + "(X0, X" +
                         std::to_string(body_len) + ")";
      std::string body;
      bool recursive = false;
      for (int b = 0; b < body_len; ++b) {
        // Choose a body predicate: an EDB relation, an earlier IDB
        // predicate, or (at most once, not in the first rule) p itself.
        std::string pred;
        int64_t pick = rng.Uniform(0, 3);
        if (pick == 0 && p > 0) {
          pred = "p" + std::to_string(rng.Uniform(0, p - 1));
        } else if (pick == 1 && r > 0 && !recursive && has_base_rule) {
          pred = "p" + std::to_string(p);
          recursive = true;
        } else {
          pred = "e" + std::to_string(rng.Uniform(0, num_edb - 1));
        }
        if (b > 0) body += ", ";
        body += pred + "(X" + std::to_string(b) + ", X" +
                std::to_string(b + 1) + ")";
      }
      if (!recursive) has_base_rule = true;
      // Optional negated guard on a strictly lower stratum (EDB only, to
      // keep stratification trivially valid), over already-bound vars.
      if (rng.Bernoulli(0.3)) {
        body += ", not e" + std::to_string(rng.Uniform(0, num_edb - 1)) +
                "(X0, X" + std::to_string(body_len) + ")";
      }
      out.program += head + " :- " + body + ".\n";
    }
  }

  // Query the last IDB predicate; bind the first argument half the time.
  std::string target = "p" + std::to_string(num_idb - 1);
  if (rng.Bernoulli(0.5)) {
    out.query =
        "?- " + target + "(" + node(rng.Uniform(0, num_nodes - 1)) + ", W).";
  } else {
    out.query = "?- " + target + "(X, Y).";
  }
  return out;
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

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllEvaluatorsAgree) {
  GeneratedCase gen = GenerateCase(GetParam());
  SCOPED_TRACE("program:\n" + gen.program + "query: " + gen.query);

  auto tb = testbed::Testbed::Create();
  ASSERT_TRUE(tb.ok());
  ASSERT_TRUE((*tb)->Consult(gen.program).ok());

  bool have_reference = false;
  std::set<std::string> reference;
  struct Config {
    bool magic;
    bool supplementary;
  };
  for (auto strategy : {LfpStrategy::kSemiNaive, LfpStrategy::kNaive,
                        LfpStrategy::kNativeTc}) {
    for (Config config :
         {Config{false, false}, Config{true, false}, Config{true, true}}) {
      testbed::QueryOptions opts =
          (config.supplementary ? testbed::QueryOptions::SupplementaryMagic()
           : config.magic       ? testbed::QueryOptions::Magic()
                                : testbed::QueryOptions::SemiNaive())
              .WithStrategy(strategy);
      auto outcome = (*tb)->Query(gen.query, opts);
      ASSERT_TRUE(outcome.ok())
          << lfp::StrategyName(strategy) << " magic=" << config.magic
          << " sup=" << config.supplementary << ": "
          << outcome.status().ToString();
      auto answers = AnswerSet(outcome->result);
      if (!have_reference) {
        reference = answers;
        have_reference = true;
      } else {
        EXPECT_EQ(answers, reference)
            << lfp::StrategyName(strategy) << " magic=" << config.magic
            << " sup=" << config.supplementary;
      }
    }
  }
  // Adaptive and cached paths agree too.
  testbed::QueryOptions adaptive =
      testbed::QueryOptions::Adaptive().WithCache();
  auto first = (*tb)->Query(gen.query, adaptive);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(AnswerSet(first->result), reference);
  auto cached = (*tb)->Query(gen.query, adaptive);
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->report.from_cache);
  EXPECT_EQ(AnswerSet(cached->result), reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(uint64_t{1}, uint64_t{33}));

// The results must also be stable under workspace->stored migration: the
// same program committed to the Stored DKB answers identically.
class StoredMigrationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoredMigrationTest, WorkspaceAndStoredAnswersMatch) {
  GeneratedCase gen = GenerateCase(GetParam() + 1000);
  auto ws_tb = testbed::Testbed::Create();
  auto st_tb = testbed::Testbed::Create();
  ASSERT_TRUE(ws_tb.ok() && st_tb.ok());
  ASSERT_TRUE((*ws_tb)->Consult(gen.program).ok());
  ASSERT_TRUE((*st_tb)->Consult(gen.program).ok());
  auto update = (*st_tb)->UpdateStoredDkb();
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  (*st_tb)->ClearWorkspace();

  auto from_ws = (*ws_tb)->Query(gen.query);
  auto from_st = (*st_tb)->Query(gen.query);
  ASSERT_TRUE(from_ws.ok()) << from_ws.status().ToString();
  ASSERT_TRUE(from_st.ok()) << from_st.status().ToString();
  EXPECT_EQ(AnswerSet(from_ws->result), AnswerSet(from_st->result));
  // The stored path really extracted rules (workspace is empty).
  EXPECT_GT(from_st->report.compile.rules_extracted_stored, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoredMigrationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

}  // namespace
}  // namespace dkb
