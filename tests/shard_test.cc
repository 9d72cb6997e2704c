// Shard-count invariance: the sharded data plane is an internal layout
// choice, so the same workload must produce identical answer SETS at every
// shard count, across the whole strategy matrix. Scan order is shard-major
// and therefore legitimately differs between layouts; the oracle compares
// canonical wire bytes of SORTED rows.
//
// Also pinned here: the pathological-skew case (every row hashing to one
// shard) terminates and agrees with the unsharded run, and the
// observability surface (sys.shards, sys.query_log.shards) reports the
// layout.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/in_process_client.h"
#include "gtest/gtest.h"
#include "net/wire.h"
#include "testbed/options.h"
#include "testbed/testbed.h"

namespace dkb {
namespace {

/// The paper's strategy axes plus the cache and parallel-LFP extensions and
/// the transitive-closure operator, which appends to possibly-sharded IDB
/// relations itself — the same matrix the transport oracle runs.
std::vector<std::pair<std::string, testbed::QueryOptions>> OptionMatrix() {
  using testbed::QueryOptions;
  return {
      {"seminaive", QueryOptions::SemiNaive()},
      {"naive", QueryOptions::Naive()},
      {"magic", QueryOptions::Magic()},
      {"supplementary", QueryOptions::SupplementaryMagic()},
      {"cached", QueryOptions::SemiNaive().WithCache()},
      {"parallel4", QueryOptions::SemiNaive().WithParallelism(4)},
      {"tc",
       QueryOptions::SemiNaive().WithStrategy(lfp::LfpStrategy::kNativeTc)},
  };
}

/// Canonical byte encoding of the result SET: schema, then the wire bytes
/// of each row in sorted order. Sorting is what makes the encoding
/// layout-independent — a sharded scan interleaves shards, an unsharded
/// one is slot-ordered.
std::string SortedCanonicalBytes(const QueryResultSet& rs) {
  net::WireWriter header;
  header.Cols(rs.schema);
  header.U32(static_cast<uint32_t>(rs.rows.size()));
  std::vector<std::string> rows;
  rows.reserve(rs.rows.size());
  for (const Tuple& row : rs.rows) {
    net::WireWriter w;
    w.Row(row);
    rows.push_back(w.Take());
  }
  std::sort(rows.begin(), rows.end());
  std::string out = header.Take();
  for (const std::string& r : rows) out += r;
  return out;
}

/// Recursive + nonrecursive rules over a parent relation shaped like the
/// paper's ancestor benchmark: a 60-deep chain with side branches, so
/// semi-naive iterates ~60 wavefronts and the branch keys spread over
/// every shard.
std::string ChainWorkload() {
  std::string text =
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
      "sib(X, Y) :- par(P, X), par(P, Y).\n";
  for (int i = 0; i < 60; ++i) {
    text += "par(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
    if (i % 3 == 0) {
      text += "par(n" + std::to_string(i) + ", m" + std::to_string(i) +
              ").\n";
    }
  }
  return text;
}

/// Every par fact shares one first-column (= partition-column) value, so
/// hash routing puts the entire relation on a single shard no matter how
/// many exist. The sib self-join then runs 100x100 on that one shard.
std::string SkewWorkload() {
  std::string text =
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
      "sib(X, Y) :- par(P, X), par(P, Y).\n";
  for (int i = 0; i < 100; ++i) {
    text += "par(hub, m" + std::to_string(i) + ").\n";
  }
  return text;
}

std::unique_ptr<InProcessClient> MakeClient(size_t shards,
                                            const std::string& program) {
  auto client =
      InProcessClient::Create(testbed::TestbedOptions{}.WithShards(shards));
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  Status consulted = (*client)->Consult(program);
  EXPECT_TRUE(consulted.ok()) << consulted.ToString();
  return std::move(*client);
}

/// Runs every (strategy, goal) cell and returns its sorted canonical
/// bytes, keyed by cell label.
std::map<std::string, std::string> RunMatrix(
    InProcessClient* client, const std::vector<std::string>& goals) {
  std::map<std::string, std::string> out;
  for (const auto& [label, options] : OptionMatrix()) {
    for (const std::string& goal : goals) {
      auto result = client->Query(goal, options, net::kReportNone);
      EXPECT_TRUE(result.ok())
          << label << " / " << goal << ": " << result.status().ToString();
      if (!result.ok()) continue;
      EXPECT_GT(result->rows.size(), 0u) << label << " / " << goal;
      out[label + "/" + goal] = SortedCanonicalBytes(*result);
    }
  }
  return out;
}

TEST(ShardTest, AnswersAreInvariantAcrossShardCounts) {
  const std::string program = ChainWorkload();
  const std::vector<std::string> goals = {"anc(n0, W)", "anc(n30, W)",
                                          "sib(n3, W)"};
  const auto baseline = RunMatrix(MakeClient(1, program).get(), goals);
  ASSERT_EQ(baseline.size(), OptionMatrix().size() * goals.size());
  for (size_t shards : {2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto sharded = RunMatrix(MakeClient(shards, program).get(), goals);
    ASSERT_EQ(sharded.size(), baseline.size());
    for (const auto& [cell, bytes] : baseline) {
      auto it = sharded.find(cell);
      ASSERT_NE(it, sharded.end()) << cell;
      EXPECT_EQ(bytes, it->second) << cell;
    }
  }
}

TEST(ShardTest, PathologicalSkewTerminatesAndMatches) {
  const std::string program = SkewWorkload();
  // sib(m0, W) is the 100-wide sibling set — a self-join whose build and
  // probe sides both live entirely on hub's shard.
  const std::vector<std::string> goals = {"anc(hub, W)", "sib(m0, W)"};
  const auto baseline = RunMatrix(MakeClient(1, program).get(), goals);
  const auto skewed = RunMatrix(MakeClient(8, program).get(), goals);
  ASSERT_EQ(baseline.size(), skewed.size());
  for (const auto& [cell, bytes] : baseline) {
    EXPECT_EQ(bytes, skewed.at(cell)) << cell;
  }
}

TEST(ShardTest, ObservabilityReportsTheLayout) {
  auto client = MakeClient(4, ChainWorkload());
  ASSERT_TRUE(client->Query("anc(n0, W)", {}, net::kReportNone).ok());

  // sys.query_log carries the layout the query ran under.
  auto log = client->ExecuteSql(
      "SELECT shards FROM sys.query_log WHERE executed = 1");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_GT(log->rows.size(), 0u);
  EXPECT_EQ(log->rows.back()[0].as_int(), 4);

  // sys.shards has one row per (table, shard) plus interner segments.
  auto shards = client->ExecuteSql("SELECT * FROM sys.shards");
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  int par_shards = 0;
  int interner_segments = 0;
  int64_t par_rows = 0;
  for (const Tuple& row : shards->rows) {
    if (row[1].as_string() == "interner") {
      ++interner_segments;
      continue;
    }
    if (row[0].as_string() == "edb_par") {
      ++par_shards;
      par_rows += row[3].as_int();
    }
  }
  EXPECT_EQ(par_shards, 4);
  EXPECT_GT(interner_segments, 0);
  EXPECT_EQ(par_rows, 80);  // 60 chain + 20 branch facts
}

}  // namespace
}  // namespace dkb
