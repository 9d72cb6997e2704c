#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "common/value.h"

namespace dkb {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("table x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "table x");
  EXPECT_EQ(s.ToString(), "NotFound: table x");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeError), "TypeError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kSemanticError), "SemanticError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  DKB_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = Quarter(6);  // 6/2 = 3, odd
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  Value n;
  Value i(static_cast<int64_t>(7));
  Value s("abc");
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(n.type(), DataType::kInvalid);
  EXPECT_TRUE(i.is_int());
  EXPECT_EQ(i.as_int(), 7);
  EXPECT_EQ(i.type(), DataType::kInteger);
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(s.as_string(), "abc");
  EXPECT_EQ(s.type(), DataType::kVarchar);
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(static_cast<int64_t>(3)), Value(static_cast<int64_t>(3)));
  EXPECT_NE(Value(static_cast<int64_t>(3)), Value(static_cast<int64_t>(4)));
  EXPECT_NE(Value(static_cast<int64_t>(3)), Value("3"));
  EXPECT_LT(Value(static_cast<int64_t>(3)), Value(static_cast<int64_t>(4)));
  EXPECT_LT(Value("abc"), Value("abd"));
  // NULL sorts before everything.
  EXPECT_LT(Value::Null(), Value(static_cast<int64_t>(-100)));
  EXPECT_LT(Value(static_cast<int64_t>(100)), Value(""));  // int < string
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, SqlLiteralEscaping) {
  EXPECT_EQ(Value(static_cast<int64_t>(42)).ToSqlLiteral(), "42");
  EXPECT_EQ(Value("plain").ToSqlLiteral(), "'plain'");
  EXPECT_EQ(Value("o'neil").ToSqlLiteral(), "'o''neil'");
  EXPECT_EQ(Value::Null().ToSqlLiteral(), "NULL");
}

TEST(ValueTest, HashConsistentWithEquality) {
  Value a("hello");
  Value b("hello");
  EXPECT_EQ(a.Hash(), b.Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(a);
  EXPECT_EQ(set.count(b), 1u);
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StrUtilTest, Split) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(StrJoin({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StrUtilTest, CaseFunctions) {
  EXPECT_EQ(AsciiLower("SeLeCt"), "select");
  EXPECT_EQ(AsciiUpper("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("Ancestor", "ANCESTOR"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(StrTrim("  x y \n"), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StrUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("magic_anc", "magic_"));
  EXPECT_FALSE(StartsWith("anc", "magic_"));
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

TEST(TimerTest, AccumulatorKeepsSubMicrosecondScopes) {
  // 1,000 phase scopes of at least 300 ns each: truncating every scope to
  // whole microseconds would lose nearly all of it.
  int64_t sink_ns = 0;
  for (int i = 0; i < 1000; ++i) {
    trace::ScopedPhase phase(&sink_ns);
    WallTimer spin;
    while (spin.ElapsedNanos() < 300) {
    }
  }
  EXPECT_GE(NanosToMicros(sink_ns), 300);
}

TEST(TimerTest, NanosRoundToTheNearestMicrosecond) {
  EXPECT_EQ(NanosToMicros(0), 0);
  EXPECT_EQ(NanosToMicros(499), 0);
  EXPECT_EQ(NanosToMicros(500), 1);
  EXPECT_EQ(NanosToMicros(1499), 1);
  EXPECT_EQ(NanosToMicros(2500), 3);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

}  // namespace
}  // namespace dkb
