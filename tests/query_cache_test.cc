// Direct unit tests of the precompiled-query store (conclusion #3).

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "km/compiler.h"
#include "testbed/query_cache.h"

namespace dkb::testbed {
namespace {

datalog::Atom Goal(const std::string& text) {
  auto atom = datalog::ParseQuery(text);
  EXPECT_TRUE(atom.ok());
  return *atom;
}

km::CompiledQuery MakeCompiled(const std::string& marker) {
  km::CompiledQuery compiled;
  compiled.original_query.predicate = marker;
  return compiled;
}

TEST(QueryCacheTest, KeyEncodesGoalAndOptions) {
  // Entries are keyed by km::QueryFormKey: the goal's form plus the option
  // bits that change the compiled program.
  km::CompilerOptions plain;
  km::CompilerOptions magic;
  magic.magic_mode = km::MagicMode::kOn;
  km::CompilerOptions supplementary = magic;
  supplementary.magic_variant = magic::MagicVariant::kSupplementary;
  km::CompilerOptions adaptive;
  adaptive.magic_mode = km::MagicMode::kAdaptive;
  auto key = [](const std::string& goal, const km::CompilerOptions& o) {
    return km::QueryFormKey(Goal(goal), o);
  };
  EXPECT_NE(key("anc(a, W)", plain), key("anc(a, W)", magic));
  EXPECT_NE(key("anc(a, W)", plain), key("anc(a, W)", adaptive));
  EXPECT_NE(key("anc(a, W)", magic), key("anc(a, W)", supplementary));
  EXPECT_EQ(key("anc(a, W)", plain), key("anc(a, W)", plain));
  // One form serves every constant of a type...
  EXPECT_EQ(key("anc(a, W)", plain), key("anc(b, W)", plain));
  EXPECT_EQ(key("anc(a, W)", magic), key("anc(b, W)", magic));
  EXPECT_EQ(key("anc(a, b)", magic), key("anc(c, d)", magic));
  // ...except under adaptive magic, whose decision depends on them.
  EXPECT_NE(key("anc(a, W)", adaptive), key("anc(b, W)", adaptive));
  // Binding pattern, variable names, repeated variables, constant types
  // and groundness each make another form.
  EXPECT_NE(key("anc(a, W)", magic), key("anc(W, a)", magic));
  EXPECT_NE(key("anc(a, W)", magic), key("anc(a, V)", magic));
  EXPECT_NE(key("anc(X, X)", magic), key("anc(X, Y)", magic));
  EXPECT_NE(key("p(1, W)", magic), key("p('1', W)", magic));
  EXPECT_NE(key("anc(a, b)", magic), key("anc(a, W)", magic));
  // No variable name spells a constant's type.
  EXPECT_NE(key("p(VARCHAR)", plain), key("p(a)", plain));
}

TEST(QueryCacheTest, LookupMissThenHit) {
  QueryCache cache;
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  cache.Insert("k", MakeCompiled("p"), {"p", "e"});
  auto hit = cache.Lookup("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->original_query.predicate, "p");
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(QueryCacheTest, InvalidateByDependency) {
  QueryCache cache;
  cache.Insert("k1", MakeCompiled("p"), {"p", "e"});
  cache.Insert("k2", MakeCompiled("q"), {"q", "e"});
  cache.Insert("k3", MakeCompiled("r"), {"r", "f"});
  cache.InvalidateOn({"e"});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidated, 2);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_NE(cache.Lookup("k3"), nullptr);
}

TEST(QueryCacheTest, InvalidateOnUnrelatedPredicateKeepsAll) {
  QueryCache cache;
  cache.Insert("k1", MakeCompiled("p"), {"p"});
  cache.InvalidateOn({"zzz"});
  EXPECT_EQ(cache.size(), 1u);
  cache.InvalidateOn({});
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryCacheTest, InsertOverwritesSameKey) {
  QueryCache cache;
  cache.Insert("k", MakeCompiled("old"), {"a"});
  cache.Insert("k", MakeCompiled("new"), {"b"});
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->original_query.predicate, "new");
  // Dependencies were replaced too: invalidating on the old set is a no-op.
  cache.InvalidateOn({"a"});
  EXPECT_EQ(cache.size(), 1u);
  cache.InvalidateOn({"b"});
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryCacheTest, ClearResetsEntriesNotStats) {
  QueryCache cache;
  cache.Insert("k", MakeCompiled("p"), {"p"});
  ASSERT_NE(cache.Lookup("k"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace dkb::testbed
