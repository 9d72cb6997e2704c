// StringDict / interned-Value tests: id stability under concurrent
// interning (the TSan hammer for the lock-free read path), representation
// mixing in comparisons and hashing, SQL-literal rendering, and the
// dkb.common.interner_size gauge.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/interner.h"
#include "common/metrics.h"
#include "common/value.h"

namespace dkb {
namespace {

TEST(StringDictTest, InternIsIdempotent) {
  StringDict dict;
  const uint32_t a = dict.Intern("alpha");
  const uint32_t b = dict.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alpha"), a);
  EXPECT_EQ(dict.Get(a), "alpha");
  EXPECT_EQ(dict.Get(b), "beta");
  EXPECT_EQ(dict.size(), 2u);
}

TEST(StringDictTest, FindNeverInserts) {
  StringDict dict;
  const uint32_t a = dict.Intern("alpha");
  EXPECT_EQ(dict.Find("alpha"), a);
  EXPECT_EQ(dict.Find("beta"), StringDict::kInvalidId);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(InternedValueTest, InternIfKnownAdoptsOnlyKnownStrings) {
  Value known = Value::Interned("if-known-stored");
  Value same("if-known-stored");
  same.InternIfKnown();
  EXPECT_TRUE(same.is_interned());
  EXPECT_EQ(same.interned_id(), known.interned_id());
  const size_t before = GlobalStringDict().size();
  Value fresh("if-known-never-stored");
  fresh.InternIfKnown();
  EXPECT_FALSE(fresh.is_interned());
  EXPECT_EQ(GlobalStringDict().size(), before);
  EXPECT_EQ(fresh, Value("if-known-never-stored"));
}

TEST(StringDictTest, HashMatchesStdHashOfContent) {
  StringDict dict;
  const uint32_t id = dict.Intern("hash-me");
  EXPECT_EQ(dict.HashOf(id), std::hash<std::string>{}("hash-me"));
}

TEST(StringDictTest, SizeGaugeTracksDistinctStrings) {
  StringDict dict;
  for (int i = 0; i < 5; ++i) dict.Intern("gauge-" + std::to_string(i));
  dict.Intern("gauge-0");  // duplicate: no growth
  EXPECT_EQ(dict.size(), 5u);
  EXPECT_EQ(
      metrics::GlobalMetrics().gauge("dkb.common.interner_size").value(), 5);
}

TEST(StringDictTest, ConcurrentInternYieldsStableIds) {
  // The TSan hammer: many threads intern overlapping string sets while
  // readers resolve ids through the lock-free Get/HashOf path. Every thread
  // must observe one id per distinct string, and every id must resolve to
  // its exact content.
  StringDict dict;
  constexpr int kThreads = 8;
  constexpr int kStrings = 500;
  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kStrings));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&dict, &ids, t]() {
      for (int i = 0; i < kStrings; ++i) {
        // Threads walk the shared set in different orders so insert races
        // on every string.
        const int s = (i * 7 + t * 13) % kStrings;
        const std::string str = "s" + std::to_string(s);
        const uint32_t id = dict.Intern(str);
        ids[t][s] = id;
        ASSERT_EQ(dict.Get(id), str);
        ASSERT_EQ(dict.HashOf(id), std::hash<std::string>{}(str));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(dict.size(), static_cast<size_t>(kStrings));
  for (int t = 1; t < kThreads; ++t) {
    for (int s = 0; s < kStrings; ++s) EXPECT_EQ(ids[t][s], ids[0][s]);
  }
}

// ---------------------------------------------------------------------------
// Value representation mixing
// ---------------------------------------------------------------------------

TEST(InternedValueTest, MixedRepresentationEquality) {
  const Value owned("mixed");
  const Value interned = Value::Interned("mixed");
  ASSERT_TRUE(interned.is_interned());
  ASSERT_FALSE(owned.is_interned());
  EXPECT_EQ(owned, interned);
  EXPECT_EQ(interned, owned);
  EXPECT_NE(interned, Value("other"));
  EXPECT_EQ(owned.Hash(), interned.Hash());
}

TEST(InternedValueTest, OrderingMatchesOwnedStrings) {
  const Value a = Value::Interned("apple");
  const Value b("banana");
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  // Same content never compares less in either direction or representation.
  EXPECT_FALSE(a < Value("apple"));
  EXPECT_FALSE(Value("apple") < a);
  // Type ranks are representation-blind: NULL < int < string.
  EXPECT_LT(Value(), a);
  EXPECT_LT(Value(int64_t{42}), a);
}

TEST(InternedValueTest, RenderingUnchangedByInterning) {
  const Value owned("o'brien");
  Value interned = owned;
  interned.InternInPlace();
  ASSERT_TRUE(interned.is_interned());
  EXPECT_EQ(interned.ToString(), owned.ToString());
  EXPECT_EQ(interned.ToSqlLiteral(), owned.ToSqlLiteral());
  EXPECT_EQ(interned.ToSqlLiteral(), "'o''brien'");
}

TEST(InternedValueTest, InternInPlaceLeavesNonStringsAlone) {
  Value null_v;
  Value int_v(int64_t{9});
  null_v.InternInPlace();
  int_v.InternInPlace();
  EXPECT_FALSE(null_v.is_interned());
  EXPECT_FALSE(int_v.is_interned());
  EXPECT_TRUE(null_v.is_null());
  EXPECT_EQ(int_v.as_int(), 9);
}

TEST(InternedValueTest, SameContentSameGlobalId) {
  const Value a = Value::Interned("stable-id");
  const Value b = Value::Interned("stable-id");
  EXPECT_EQ(a.interned_id(), b.interned_id());
}

}  // namespace
}  // namespace dkb
