// Input generation, answer oracles and fixture set-up.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "workload/data_gen.h"
#include "workload/queries.h"
#include "workload/rule_gen.h"

namespace perfbench {

using dkb::DataType;
using dkb::Result;
using dkb::Status;
using dkb::Tuple;
using dkb::Value;

namespace {

constexpr int kChainEdges = 8;

/// Closure over the write-side relation; the rule updates hang fresh rules
/// off it.
constexpr const char* kWancRules =
    "wanc(X, Y) :- wpar(X, Y).\n"
    "wanc(X, Y) :- wpar(X, Z), wanc(Z, Y).\n";

std::vector<Tuple> ChainRows(int64_t k) {
  std::vector<Tuple> rows;
  rows.reserve(kChainEdges);
  for (int j = 0; j < kChainEdges; ++j) {
    rows.push_back({Value(ChainNode(k, j)), Value(ChainNode(k, j + 1))});
  }
  return rows;
}

}  // namespace

std::string Tree::NodeName(int64_t index) const {
  return dkb::workload::TreeNodeName(0, index);
}

std::string Tree::Goal(int64_t index) const {
  return "ancestor(" + NodeName(index) + ", W)";
}

std::vector<std::string> Tree::Descendants(int64_t index) const {
  std::vector<std::string> out;
  std::vector<int64_t> frontier = {index};
  while (!frontier.empty()) {
    std::vector<int64_t> next;
    for (int64_t n : frontier) {
      for (int64_t child : {2 * n + 1, 2 * n + 2}) {
        if (child >= nodes) continue;
        out.push_back(NodeName(child));
        next.push_back(child);
      }
    }
    frontier.swap(next);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int64_t Tree::RandomNode(Rng* rng, int lo, int hi) const {
  const int64_t first = (int64_t{1} << lo) - 1;
  const int64_t last = (int64_t{1} << (hi + 1)) - 2;
  return rng->Uniform(first, last);
}

std::string ChainNode(int64_t k, int j) {
  return "c" + std::to_string(k) + "_" + std::to_string(j);
}

std::string ChainGoal(int64_t k) {
  return "wanc(" + ChainNode(k, 0) + ", W)";
}

std::vector<std::string> ChainAnswers(int64_t k) {
  std::vector<std::string> out;
  for (int j = 1; j <= kChainEdges; ++j) out.push_back(ChainNode(k, j));
  std::sort(out.begin(), out.end());
  return out;
}

bool CheckAnswers(const std::vector<Tuple>& rows,
                  const std::vector<std::string>& expected, OpCounter* ops,
                  const std::string& goal) {
  std::vector<std::string> got;
  got.reserve(rows.size());
  for (const Tuple& row : rows) {
    if (row.empty() || !row[0].is_string()) {
      ops->Fail(goal + ": malformed answer row");
      return false;
    }
    got.push_back(row[0].as_string());
  }
  std::sort(got.begin(), got.end());
  if (got != expected) {
    ops->Fail(goal + ": " + std::to_string(got.size()) + " answers, expected " +
              std::to_string(expected.size()));
    return false;
  }
  return true;
}

Result<Fixture> MakeFixture(const FixtureSpec& spec,
                            const std::string& wal_dir) {
  Fixture fx;
  dkb::testbed::TestbedOptions options;
  if (spec.wal) {
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    options.WithWalDir(wal_dir).WithWalFsync(true).WithWalGroupCommit(true);
    fx.wal_dir = wal_dir;
  }
  DKB_ASSIGN_OR_RETURN(fx.tb, dkb::testbed::Testbed::Create(options));
  dkb::testbed::Testbed* tb = fx.tb.get();

  const dkb::km::PredicateTypes pair = {DataType::kVarchar, DataType::kVarchar};
  DKB_RETURN_IF_ERROR(tb->DefineBase("parent", pair));
  DKB_RETURN_IF_ERROR(tb->DefineBase("wpar", pair));
  std::string program = dkb::workload::AncestorRules() + kWancRules;
  if (spec.rule_base > 0) {
    dkb::workload::GeneratedRuleBase base =
        dkb::workload::MakeRuleBase(spec.rule_base, /*relevant_rules=*/10);
    for (const std::string& pred : base.base_preds) {
      DKB_RETURN_IF_ERROR(tb->DefineBase(pred, pair));
    }
    for (const dkb::datalog::Rule& rule : base.rules) {
      program += rule.ToString() + "\n";
    }
  }
  DKB_RETURN_IF_ERROR(tb->Consult(program));
  DKB_RETURN_IF_ERROR(tb->UpdateStoredDkb().status());
  tb->ClearWorkspace();

  if (spec.tree_depth > 0) {
    DKB_RETURN_IF_ERROR(tb->AddFacts(
        "parent",
        dkb::workload::MakeFullBinaryTrees(1, spec.tree_depth).ToTuples()));
  }
  if (spec.initial_chains > 0) {
    std::vector<Tuple> rows;
    for (int64_t k = 0; k < spec.initial_chains; ++k) {
      for (Tuple& row : ChainRows(k)) rows.push_back(std::move(row));
    }
    DKB_RETURN_IF_ERROR(tb->AddFacts("wpar", rows));
    fx.chains = spec.initial_chains;
  }
  if (spec.server) {
    fx.server = std::make_unique<dkb::net::Server>();
    DKB_RETURN_IF_ERROR(fx.server->Start(tb));
    fx.address = "127.0.0.1:" + std::to_string(fx.server->port());
  }
  return fx;
}

int64_t Writer::CommitChain(OpCounter* ops, SpanLog* log, int64_t op,
                            Samples* latency_us) {
  const int64_t k = next_chain_++;
  const std::vector<Tuple> rows = ChainRows(k);
  ops->Attempt();
  const int64_t start = NowNs();
  Status st;
  {
    ScopedSpan span(log, "testbed.add_facts", op);
    st = client_->AddFacts("wpar", rows);
  }
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  if (!st.ok()) {
    ops->Fail("AddFacts: " + st.ToString());
    return -1;
  }
  latency_us->Add(us);
  return k;
}

bool Writer::UpdateRule(OpCounter* ops, SpanLog* log, int64_t op,
                        Samples* latency_us) {
  const int64_t k = next_rule_++;
  const std::string rule = "wr" + std::to_string(k) +
                           "(X, Y) :- wanc(X, Z), wpar(Z, Y).";
  ops->Attempt();
  const int64_t start = NowNs();
  Status st;
  dkb::Result<dkb::UpdateStoredStats> stored = Status::Internal("not run");
  {
    ScopedSpan span(log, "testbed.add_rule", op);
    st = client_->AddRule(rule);
  }
  if (st.ok()) {
    ScopedSpan span(log, "km.update", op);
    stored = client_->UpdateStoredDkb();
  }
  Status cleared = Status::Internal("not run");
  if (st.ok() && stored.ok()) {
    ScopedSpan span(log, "testbed.clear_workspace", op);
    cleared = client_->ClearWorkspace();
  }
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  if (!st.ok() || !stored.ok() || !cleared.ok()) {
    ops->Fail("rule update " + rule + ": " +
              (!st.ok() ? st : !stored.ok() ? stored.status() : cleared)
                  .ToString());
    return false;
  }
  if (stored->rules_stored != 1) {
    ops->Fail("rule update " + rule + " stored " +
              std::to_string(stored->rules_stored) + " rules");
    return false;
  }
  latency_us->Add(us);
  return true;
}

}  // namespace perfbench
