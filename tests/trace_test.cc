// Trace spans and the QueryReport span tree: hierarchy, Detach/Adopt
// merging, deterministic program order under parallel LFP, and phase
// timings that account for the query's wall time.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "testbed/testbed.h"

namespace dkb {
namespace {

using testbed::ExplainMode;
using testbed::QueryOptions;
using testbed::QueryOutcome;
using testbed::Testbed;

TEST(TraceSpanTest, BuildsTree) {
  trace::TraceContext ctx("root");
  trace::TraceSpan* a = ctx.root()->AddChild("a");
  trace::TraceSpan* b = ctx.root()->AddChild("b");
  a->AddChild("a1")->End();
  a->Tag("k", std::string("v"));
  a->Tag("n", int64_t{7});
  a->End();
  b->End();
  ctx.root()->End();

  ASSERT_EQ(ctx.root()->children().size(), 2u);
  EXPECT_EQ(ctx.root()->children()[0]->name(), "a");
  EXPECT_EQ(ctx.root()->children()[1]->name(), "b");
  ASSERT_EQ(a->children().size(), 1u);
  EXPECT_EQ(a->children()[0]->name(), "a1");
  ASSERT_EQ(a->tags().size(), 2u);
  EXPECT_EQ(a->tags()[0].key, "k");
  EXPECT_FALSE(a->tags()[0].is_number);
  EXPECT_TRUE(a->tags()[1].is_number);
  EXPECT_GE(a->duration_us(), 0);
  EXPECT_LE(a->start_us(), a->end_us());
}

TEST(TraceSpanTest, SnapshotRebasesOffsetsForGrafting) {
  trace::TraceContext ctx("engine");
  trace::TraceSpan* child = ctx.root()->AddChild("compile");
  child->End();
  ctx.root()->End();

  // A server grafts the engine tree into its own request timeline by
  // passing the enclosing offset; every start/end shifts by that base and
  // structure survives unchanged.
  trace::SpanNode plain = trace::SnapshotSpan(*ctx.root());
  trace::SpanNode shifted = trace::SnapshotSpan(*ctx.root(), 250);
  ASSERT_EQ(shifted.children.size(), plain.children.size());
  EXPECT_EQ(shifted.name, plain.name);
  EXPECT_EQ(shifted.start_us, plain.start_us + 250);
  EXPECT_EQ(shifted.end_us, plain.end_us + 250);
  EXPECT_EQ(shifted.children[0].start_us, plain.children[0].start_us + 250);
  EXPECT_EQ(shifted.children[0].end_us, plain.children[0].end_us + 250);
}

TEST(TraceSpanTest, EndIsIdempotent) {
  trace::TraceContext ctx("root");
  trace::TraceSpan* s = ctx.root()->AddChild("s");
  s->End();
  int64_t first_end = s->end_us();
  s->End();
  EXPECT_EQ(s->end_us(), first_end);
}

TEST(TraceSpanTest, DetachAndAdoptPreservesTimeline) {
  trace::TraceContext ctx("root");
  std::unique_ptr<trace::TraceSpan> detached = ctx.Detach("worker");
  detached->AddChild("inner")->End();
  detached->End();
  ctx.root()->Adopt(std::move(detached));
  ctx.root()->End();
  ASSERT_EQ(ctx.root()->children().size(), 1u);
  const trace::TraceSpan& adopted = *ctx.root()->children()[0];
  EXPECT_EQ(adopted.name(), "worker");
  ASSERT_EQ(adopted.children().size(), 1u);
  // Detached spans share the context's epoch, so offsets are comparable.
  EXPECT_GE(adopted.start_us(), ctx.root()->start_us());
}

TEST(TraceSpanTest, NullParentIsNoOp) {
  trace::ScopedPhase scoped(nullptr, "y");
  EXPECT_EQ(scoped.get(), nullptr);
  scoped.Tag("k", int64_t{1});  // must not crash
}

TEST(TraceSpanTest, RenderersProduceAllFormats) {
  trace::TraceContext ctx("query:test");
  trace::TraceSpan* child = ctx.root()->AddChild("compile");
  child->Tag("iter", int64_t{3});
  child->End();
  ctx.root()->End();

  std::string text = ctx.RenderText();
  EXPECT_NE(text.find("query:test"), std::string::npos);
  EXPECT_NE(text.find("compile"), std::string::npos);
  EXPECT_NE(text.find("iter=3"), std::string::npos);

  std::string json = ctx.RenderJson();
  EXPECT_NE(json.find("\"name\": \"compile\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);

  std::string chrome = ctx.RenderChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
}

/// A program with `cliques` mutually independent recursive cliques plus a
/// flat collector node — real work for the wavefront scheduler.
Result<std::unique_ptr<Testbed>> MakeMultiClique(int cliques, int chain) {
  DKB_ASSIGN_OR_RETURN(std::unique_ptr<Testbed> tb, Testbed::Create());
  std::string program;
  for (int c = 0; c < cliques; ++c) {
    std::string anc = "anc" + std::to_string(c);
    std::string par = "par" + std::to_string(c);
    program += anc + "(X, Y) :- " + par + "(X, Y).\n";
    program += anc + "(X, Y) :- " + par + "(X, Z), " + anc + "(Z, Y).\n";
    program += "all(X, Y) :- " + anc + "(X, Y).\n";
    for (int i = 0; i < chain; ++i) {
      program += par + "(n" + std::to_string(c) + "_" + std::to_string(i) +
                 ", n" + std::to_string(c) + "_" + std::to_string(i + 1) +
                 ").\n";
    }
  }
  DKB_RETURN_IF_ERROR(tb->Consult(program));
  return tb;
}

/// Names of the children of the query's "execute" span.
std::vector<std::string> ExecuteChildNames(const testbed::QueryReport& r) {
  std::vector<std::string> names;
  EXPECT_NE(r.trace, nullptr);
  const trace::TraceSpan* execute = nullptr;
  for (const auto& child : r.trace->root()->children()) {
    if (child->name() == "execute") execute = child;
  }
  EXPECT_NE(execute, nullptr) << r.trace->RenderText();
  if (execute == nullptr) return names;
  for (const auto& child : execute->children()) {
    names.push_back(child->name());
  }
  return names;
}

TEST(QueryTraceTest, CollectTraceBuildsQueryTree) {
  auto tb_or = MakeMultiClique(2, 6);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  auto tb = std::move(tb_or).value();
  auto outcome =
      tb->Query("all(X, Y)", QueryOptions::SemiNaive().WithTrace());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const testbed::QueryReport& report = outcome->report;
  ASSERT_NE(report.trace, nullptr);

  // Root covers the whole query; compile and execute are its children.
  const trace::TraceSpan* root = report.trace->root();
  EXPECT_EQ(root->name(), "query:all(X, Y)");
  std::vector<std::string> top;
  for (const auto& child : root->children()) top.push_back(child->name());
  ASSERT_EQ(top.size(), 2u) << report.trace->RenderText();
  EXPECT_EQ(top[0], "compile");
  EXPECT_EQ(top[1], "execute");

  // Compile phases appear in Table 4 order.
  const trace::TraceSpan& compile = *root->children()[0];
  ASSERT_GE(compile.children().size(), 3u);
  EXPECT_EQ(compile.children()[0]->name(), "setup");
  EXPECT_EQ(compile.children()[1]->name(), "extract");

  // Every recursive node span carries per-iteration children with delta
  // tags, and the per-node delta_sizes surface in the report.
  const trace::TraceSpan& execute = *root->children()[1];
  int node_spans = 0;
  for (const auto& child : execute.children()) {
    if (child->name().rfind("node:", 0) != 0) continue;
    ++node_spans;
    if (child->name() == "node:all") continue;  // flat node: no iterations
    EXPECT_GE(child->children().size(), 2u) << child->name();
    for (const auto& iter : child->children()) {
      EXPECT_EQ(iter->name(), "iteration");
    }
  }
  EXPECT_EQ(node_spans, 3);  // anc0, anc1, all
  bool found_deltas = false;
  for (const auto& ns : report.exec.nodes) {
    if (!ns.delta_sizes.empty()) {
      found_deltas = true;
      // Semi-naive on a chain: strictly shrinking tail with final 0 delta.
      EXPECT_EQ(ns.delta_sizes.back(), 0);
      EXPECT_EQ(static_cast<int64_t>(ns.delta_sizes.size()), ns.iterations);
    }
  }
  EXPECT_TRUE(found_deltas);
}

TEST(QueryTraceTest, SemiNaiveIterationSpansTagWorkCounts) {
  auto tb_or = MakeMultiClique(1, 6);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  auto tb = std::move(tb_or).value();
  auto outcome =
      tb->Query("anc0(X, Y)", QueryOptions::SemiNaive().WithTrace());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const testbed::QueryReport& report = outcome->report;
  ASSERT_EQ(report.exec.nodes.size(), 1u);
  const lfp::NodeStats& stats = report.exec.nodes[0];

  const trace::TraceSpan* node = nullptr;
  for (const auto& child : report.trace->root()->children()) {
    if (child->name() != "execute") continue;
    for (const auto& grandchild : child->children()) {
      if (grandchild->name() == "node:anc0") node = grandchild;
    }
  }
  ASSERT_NE(node, nullptr) << report.trace->RenderText();
  ASSERT_EQ(node->children().size(), stats.new_sizes.size());
  // Each iteration span carries the iteration's NodeStats counts.
  for (size_t i = 0; i < stats.new_sizes.size(); ++i) {
    std::map<std::string, std::string> tags;
    for (const trace::TraceTag& tag : node->children()[i]->tags()) {
      tags[tag.key] = tag.value;
    }
    EXPECT_EQ(tags["new_rows"], std::to_string(stats.new_sizes[i]));
    EXPECT_EQ(tags["driver_rows"], std::to_string(stats.driver_rows[i]));
    EXPECT_EQ(tags["rhs_us"], std::to_string(stats.rhs_us[i]));
    EXPECT_EQ(tags["term_us"], std::to_string(stats.term_us[i]));
  }
}

TEST(QueryTraceTest, ParallelLfpTraceIsDeterministicProgramOrder) {
  auto tb_or = MakeMultiClique(4, 8);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  auto tb = std::move(tb_or).value();

  for (lfp::LfpStrategy strategy :
       {lfp::LfpStrategy::kSemiNaive, lfp::LfpStrategy::kNaive,
        lfp::LfpStrategy::kNativeTc}) {
    SCOPED_TRACE(lfp::StrategyName(strategy));
    const QueryOptions base = QueryOptions::SemiNaive().WithStrategy(strategy);
    auto serial = tb->Query("all(X, Y)", QueryOptions(base).WithTrace());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    // Every strategy runs through the one driver: temp setup, one span per
    // program node in program order, the final answer, then cleanup.
    std::vector<std::string> expected = {"temp"};
    for (const testbed::PlanSummary::Node& node : serial->report.plan.nodes) {
      expected.push_back("node:" + node.label);
    }
    expected.push_back("final");
    expected.push_back("cleanup");
    EXPECT_EQ(ExecuteChildNames(serial->report), expected)
        << serial->report.trace->RenderText();

    // Parallel runs detach per-node spans on pool threads and adopt them in
    // program order: the execute children must match the serial tree
    // exactly, run after run.
    for (int rep = 0; rep < 3; ++rep) {
      auto parallel = tb->Query(
          "all(X, Y)", QueryOptions(base).WithParallelism(4).WithTrace());
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(ExecuteChildNames(parallel->report), expected)
          << parallel->report.trace->RenderText();

      // Per-node stats merge in program order too.
      ASSERT_EQ(parallel->report.exec.nodes.size(),
                serial->report.exec.nodes.size());
      for (size_t i = 0; i < parallel->report.exec.nodes.size(); ++i) {
        EXPECT_EQ(parallel->report.exec.nodes[i].label,
                  serial->report.exec.nodes[i].label);
      }
    }
  }
}

TEST(QueryTraceTest, PhaseTimingsAccountForWallTime) {
  auto tb_or = MakeMultiClique(2, 12);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  auto tb = std::move(tb_or).value();
  auto outcome = tb->Query("all(X, Y)", QueryOptions::SemiNaive());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const testbed::QueryReport& report = outcome->report;

  EXPECT_TRUE(report.executed);
  EXPECT_GT(report.total_us, 0);
  int64_t accounted = report.compile.total_us() + report.exec.t_total_us;
  EXPECT_LE(accounted, report.total_us + report.total_us / 10);
  // Compile + execute cover the query end to end: the unaccounted residue
  // (cache key, plan summary, snapshots) must be within 10% of wall time,
  // with a small absolute floor for scheduler noise on tiny queries.
  int64_t residue = report.total_us - accounted;
  EXPECT_LE(residue, std::max<int64_t>(report.total_us / 10, 1000))
      << "total=" << report.total_us << " accounted=" << accounted;

  // Phases() lists Table 4 then Table 5 names in order.
  std::vector<testbed::PhaseTiming> phases = report.Phases();
  ASSERT_EQ(phases.size(), 13u);
  EXPECT_EQ(phases.front().name, "t_setup");
  EXPECT_EQ(phases[8].name, "t_comp");
  EXPECT_EQ(phases.back().name, "t_final");
}

// Each compile phase is timed once, for its bucket and its spans: a Table 4
// phase's spans under "compile" sum to its t_*_us, within the microsecond
// each span's rounding may lose. An adaptive goal that applies the rewrite
// opens two "opt" scopes, the estimate and the rewrite.
TEST(QueryTraceTest, CompileSpansSumToTheirPhaseTimes) {
  auto tb_or = MakeMultiClique(2, 12);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  auto tb = std::move(tb_or).value();
  const struct {
    const char* goal;
    QueryOptions options;
    int64_t opt_spans;
  } cases[] = {{"all(X, Y)", QueryOptions::SemiNaive(), 0},
               {"anc0(n0_0, W)", QueryOptions::Magic(), 1},
               {"anc0(n0_11, W)", QueryOptions::Adaptive(), 2}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.goal);
    auto outcome = tb->Query(c.goal, QueryOptions(c.options).WithTrace());
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const testbed::QueryReport& report = outcome->report;
    EXPECT_EQ(report.compile.magic_applied, c.opt_spans > 0);
    const std::vector<const trace::TraceSpan*> top =
        report.trace->root()->children();
    ASSERT_FALSE(top.empty());
    const trace::TraceSpan* compile = top[0];
    ASSERT_EQ(compile->name(), "compile");
    for (const auto& phase : km::CompilationStats::kPhases) {
      SCOPED_TRACE(phase.name);
      int64_t spans = 0;
      int64_t span_us = 0;
      for (const trace::TraceSpan* span : compile->children()) {
        if (span->name() != phase.name) continue;
        ++spans;
        span_us += span->duration_us();
      }
      EXPECT_EQ(spans, phase.name == std::string("opt") ? c.opt_spans : 1);
      EXPECT_LE(std::abs(span_us - report.compile.*phase.us), spans)
          << "spans " << span_us << " us, bucket "
          << report.compile.*phase.us << " us";
    }
  }
}

TEST(QueryTraceTest, TracingOffByDefault) {
  auto tb_or = MakeMultiClique(1, 4);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  auto tb = std::move(tb_or).value();
  auto outcome = tb->Query("all(X, Y)");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->report.trace, nullptr);
  EXPECT_EQ(outcome->report.ChromeTrace(), "");
}

TEST(QueryTraceTest, ReportJsonAndChromeRender) {
  auto tb_or = MakeMultiClique(2, 4);
  ASSERT_TRUE(tb_or.ok()) << tb_or.status().ToString();
  auto tb = std::move(tb_or).value();
  auto outcome = tb->Query(
      "all(X, Y)",
      QueryOptions::SemiNaive().WithParallelism(2).WithTrace());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::string json = outcome->report.ToJson();
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"t_rhs\""), std::string::npos);
  EXPECT_NE(json.find("\"delta_sizes\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  std::string chrome = outcome->report.ChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace dkb
