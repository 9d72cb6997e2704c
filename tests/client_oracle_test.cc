// Transport oracle: the same workload, run through InProcessClient and
// through RemoteClient against a dkb_server, must produce byte-identical
// result sets. This is the contract that lets every tool take --connect
// without changing behaviour.
//
// The remote side is a fresh in-process Server by default; CI points the
// test at an externally started dkb_server via DKB_ORACLE_CONNECT so the
// real binary (process boundary included) is what gets pinned.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/trace.h"
#include "client/in_process_client.h"
#include "client/remote_client.h"
#include "datalog/ast.h"
#include "datalog/parser.h"
#include "gtest/gtest.h"
#include "net/server.h"
#include "net/wire.h"
#include "testbed/testbed.h"

#ifndef DKB_EXAMPLES_DIR
#error "DKB_EXAMPLES_DIR must point at examples/programs"
#endif

namespace dkb {
namespace {

// The whole shipped example suite. Predicate-disjoint, so consulting them
// cumulatively into one session is safe (and exercises a growing rule base).
const char* const kPrograms[] = {
    "ancestor.dkb",
    "same_generation.dkb",
    "bill_of_materials.dkb",
    "flight_routes.dkb",
};

/// The option matrix each goal runs under: the paper's strategy axes plus
/// the cache and parallel-LFP extensions and the transitive-closure
/// operator.
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

/// Canonical byte encoding of everything the transport must preserve:
/// schema, rows, and rows_affected. Timings and cache provenance are
/// legitimately run-dependent and excluded.
std::string CanonicalBytes(const QueryResultSet& rs) {
  net::WireWriter w;
  w.Cols(rs.schema);
  w.U32(static_cast<uint32_t>(rs.rows.size()));
  for (const Tuple& row : rs.rows) w.Row(row);
  w.I64(rs.rows_affected);
  return w.Take();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ClientOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto local = InProcessClient::Create();
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    local_ = std::move(*local);

    const char* env = std::getenv("DKB_ORACLE_CONNECT");
    std::string target;
    if (env != nullptr && env[0] != '\0') {
      target = env;
    } else {
      auto tb = testbed::Testbed::Create();
      ASSERT_TRUE(tb.ok());
      server_tb_ = std::move(*tb);
      ASSERT_TRUE(server_.Start(server_tb_.get()).ok());
      target = "127.0.0.1:" + std::to_string(server_.port());
    }
    auto remote = RemoteClient::Connect(target);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    remote_ = std::move(*remote);
  }

  void TearDown() override {
    remote_.reset();  // close the connection before stopping the server
    if (server_tb_ != nullptr) server_.Stop();
  }

  /// Consults `text` into both sides, which must agree on acceptance.
  void ConsultBoth(const std::string& text, const std::string& what) {
    Status a = local_->Consult(text);
    Status b = remote_->Consult(text);
    ASSERT_TRUE(a.ok()) << what << " (in-process): " << a.ToString();
    ASSERT_TRUE(b.ok()) << what << " (remote): " << b.ToString();
  }

  std::unique_ptr<InProcessClient> local_;
  std::unique_ptr<RemoteClient> remote_;
  std::unique_ptr<testbed::Testbed> server_tb_;  // null with external server
  net::Server server_;
};

TEST_F(ClientOracleTest, ExampleSuiteIsByteIdenticalAcrossTransports) {
  std::vector<datalog::Atom> goals;
  for (const char* name : kPrograms) {
    std::string text =
        ReadFileOrDie(std::string(DKB_EXAMPLES_DIR) + "/" + name);
    auto program = datalog::ParseProgram(text);
    ASSERT_TRUE(program.ok()) << name << ": " << program.status().ToString();
    // Consult() rejects embedded queries; re-render rules and facts, and
    // collect the queries as oracle goals.
    std::string consult_text;
    for (const datalog::Rule& rule : program->rules) {
      consult_text += rule.ToString() + "\n";
    }
    for (const datalog::Rule& fact : program->facts) {
      consult_text += fact.ToString() + "\n";
    }
    ConsultBoth(consult_text, name);
    for (const datalog::Atom& q : program->queries) goals.push_back(q);
  }
  ASSERT_EQ(goals.size(), 4u);

  int compared = 0;
  for (const auto& [label, options] : OptionMatrix()) {
    for (const datalog::Atom& goal : goals) {
      SCOPED_TRACE(label + " / " + goal.ToString());
      auto a = local_->Query(goal.ToString(), options, net::kReportNone);
      auto b = remote_->Query(goal.ToString(), options, net::kReportNone);
      ASSERT_TRUE(a.ok()) << "in-process: " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << "remote: " << b.status().ToString();
      EXPECT_GT(a->rows.size(), 0u);  // every example goal has answers
      EXPECT_EQ(CanonicalBytes(*a), CanonicalBytes(*b));
      ++compared;
    }
  }
  EXPECT_EQ(compared, 28);
}

TEST_F(ClientOracleTest, BatchAndPreparedAgreeWithSequentialQueries) {
  std::string text =
      ReadFileOrDie(std::string(DKB_EXAMPLES_DIR) + "/ancestor.dkb");
  auto program = datalog::ParseProgram(text);
  ASSERT_TRUE(program.ok());
  std::string consult_text;
  for (const datalog::Rule& rule : program->rules) {
    consult_text += rule.ToString() + "\n";
  }
  for (const datalog::Rule& fact : program->facts) {
    consult_text += fact.ToString() + "\n";
  }
  ConsultBoth(consult_text, "ancestor.dkb");

  const std::vector<std::string> goals = {"ancestor(adam, W)",
                                          "ancestor(seth, W)"};
  auto local_batch = local_->QueryBatch(goals, {}, net::kReportNone);
  auto remote_batch = remote_->QueryBatch(goals, {}, net::kReportNone);
  ASSERT_TRUE(local_batch.ok() && remote_batch.ok());
  ASSERT_EQ(local_batch->size(), 2u);
  ASSERT_EQ(remote_batch->size(), 2u);
  for (size_t i = 0; i < goals.size(); ++i) {
    SCOPED_TRACE(goals[i]);
    EXPECT_EQ(CanonicalBytes((*local_batch)[i]),
              CanonicalBytes((*remote_batch)[i]));
    // Batch answers equal one-at-a-time answers on both transports.
    auto single = remote_->Query(goals[i], {}, net::kReportNone);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(CanonicalBytes(*single), CanonicalBytes((*remote_batch)[i]));
  }

  // Prepared statements: same goals, handle-based execution.
  auto local_stmt = local_->Prepare(goals[0], {});
  auto remote_stmt = remote_->Prepare(goals[0], {});
  ASSERT_TRUE(local_stmt.ok() && remote_stmt.ok());
  auto local_exec = local_->Execute({*local_stmt});
  auto remote_exec = remote_->Execute({*remote_stmt});
  ASSERT_TRUE(local_exec.ok() && remote_exec.ok());
  ASSERT_EQ(local_exec->size(), 1u);
  ASSERT_EQ(remote_exec->size(), 1u);
  EXPECT_EQ(CanonicalBytes((*local_exec)[0]),
            CanonicalBytes((*remote_exec)[0]));
}

/// Ordered structural skeleton of a span tree: names and nesting, no
/// offsets/tids/tag values (legitimately run-dependent).
std::string TreeSkeleton(const trace::SpanNode& node, int depth = 0) {
  std::string out(static_cast<size_t>(depth) * 2, ' ');
  out += node.name + "\n";
  for (const trace::SpanNode& child : node.children) {
    out += TreeSkeleton(child, depth + 1);
  }
  return out;
}

/// Order-insensitive skeleton for trees built by pool threads, where
/// sibling attach order is scheduling-dependent.
std::string CanonicalSkeleton(const trace::SpanNode& node) {
  std::vector<std::string> kids;
  for (const trace::SpanNode& child : node.children) {
    kids.push_back(CanonicalSkeleton(child));
  }
  std::sort(kids.begin(), kids.end());
  std::string out = node.name + "(";
  for (const std::string& k : kids) out += k + ",";
  out += ")";
  return out;
}

/// The engine's root span beneath the server's net.* wrapper; an
/// in-process tree IS the engine root.
const trace::SpanNode* FindEngineRoot(const trace::SpanNode& node) {
  if (node.name.rfind("query:", 0) == 0) return &node;
  for (const trace::SpanNode& child : node.children) {
    if (const trace::SpanNode* found = FindEngineRoot(child)) return found;
  }
  return nullptr;
}

TEST_F(ClientOracleTest, TraceTreesMatchStructurallyAcrossTransports) {
  std::string text =
      ReadFileOrDie(std::string(DKB_EXAMPLES_DIR) + "/ancestor.dkb");
  auto program = datalog::ParseProgram(text);
  ASSERT_TRUE(program.ok());
  std::string consult_text;
  for (const datalog::Rule& rule : program->rules) {
    consult_text += rule.ToString() + "\n";
  }
  for (const datalog::Rule& fact : program->facts) {
    consult_text += fact.ToString() + "\n";
  }
  ConsultBoth(consult_text, "ancestor.dkb");

  for (const auto& [label, options] : OptionMatrix()) {
    SCOPED_TRACE(label);
    testbed::QueryOptions traced = options;
    traced.collect_trace = true;
    auto a = local_->Query("ancestor(adam, W)", traced, net::kReportNone);
    auto b = remote_->Query("ancestor(adam, W)", traced, net::kReportNone);
    ASSERT_TRUE(a.ok()) << "in-process: " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << "remote: " << b.status().ToString();
    ASSERT_NE(a->trace, nullptr) << "in-process result lost its span tree";
    ASSERT_NE(b->trace, nullptr) << "remote result lost its span tree";

    // The remote tree is the server's request-lifecycle wrapper; the
    // engine tree hangs beneath net.execute.
    EXPECT_EQ(a->trace->name.rfind("query:", 0), 0u) << a->trace->name;
    EXPECT_EQ(b->trace->name, "net.request");
    std::vector<std::string> wrapper_names;
    for (const trace::SpanNode& child : b->trace->children) {
      wrapper_names.push_back(child.name);
    }
    EXPECT_EQ(wrapper_names,
              (std::vector<std::string>{"net.queue", "net.decode",
                                        "net.execute", "net.encode"}));

    const trace::SpanNode* engine_a = FindEngineRoot(*a->trace);
    const trace::SpanNode* engine_b = FindEngineRoot(*b->trace);
    ASSERT_NE(engine_a, nullptr);
    ASSERT_NE(engine_b, nullptr) << "engine tree missing under net.execute";
    if (label == "parallel4") {
      // Pool threads attach sibling spans in scheduling order.
      EXPECT_EQ(CanonicalSkeleton(*engine_a), CanonicalSkeleton(*engine_b));
    } else {
      EXPECT_EQ(TreeSkeleton(*engine_a), TreeSkeleton(*engine_b));
    }
  }

  // Untraced queries ship no trees on either transport.
  auto plain = remote_->Query("ancestor(adam, W)", {}, net::kReportNone);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->trace, nullptr);
}

TEST_F(ClientOracleTest, ReportRenderingsMatchAcrossTransports) {
  ConsultBoth("anc(X,Y) :- par(X,Y).\npar(a,b).\n", "inline program");
  // The text report embeds timings; ask for the plan-shaped JSON-free
  // check instead: same explain plan rows on both sides.
  auto options =
      testbed::QueryOptions{}.WithExplain(testbed::ExplainMode::kPlan);
  auto a = local_->Query("anc(a, W)", options, net::kReportNone);
  auto b = remote_->Query("anc(a, W)", options, net::kReportNone);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(a->rows.size(), 0u);  // the rendered plan
  // The tail of the rendered plan carries wall-clock timings, which are
  // legitimately run-dependent; the plan shape above it must agree.
  auto plan_rows = [](const QueryResultSet& rs) {
    std::vector<std::string> out;
    for (const Tuple& row : rs.rows) {
      std::string line = row[0].as_string();
      if (line.rfind("compile:", 0) == 0) break;
      out.push_back(std::move(line));
    }
    return out;
  };
  EXPECT_EQ(plan_rows(*a), plan_rows(*b));
  EXPECT_GT(plan_rows(*a).size(), 0u);

  // Errors agree on code and message.
  auto bad_a = local_->Query("undefined_pred(X)", {}, net::kReportNone);
  auto bad_b = remote_->Query("undefined_pred(X)", {}, net::kReportNone);
  ASSERT_FALSE(bad_a.ok());
  ASSERT_FALSE(bad_b.ok());
  EXPECT_EQ(bad_a.status().code(), bad_b.status().code());
  EXPECT_EQ(bad_a.status().message(), bad_b.status().message());
}

}  // namespace
}  // namespace dkb
