#include "testbed/report.h"

#include "common/str_util.h"

namespace dkb::testbed {

std::vector<PhaseTiming> QueryReport::Phases() const {
  std::vector<PhaseTiming> out;
  for (const auto& phase : km::CompilationStats::kPhases) {
    out.push_back({std::string("t_") + phase.name, compile.*phase.us});
  }
  if (executed) {
    for (const auto& phase : lfp::ExecutionStats::kPhases) {
      out.push_back({std::string("t_") + phase.name, exec.*phase.us});
    }
  }
  return out;
}

namespace {

/// " name=micros" for each of `stats`' phases.
template <typename Stats>
std::string PhaseList(const Stats& stats) {
  std::string out;
  for (const PhaseField<Stats>& phase : Stats::kPhases) {
    out += std::string(" ") + phase.name + "=" +
           std::to_string(stats.*phase.us);
  }
  return out;
}

std::string JoinDeltas(const std::vector<int64_t>& deltas) {
  std::string out = "[";
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(deltas[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string QueryReport::ExplainText() const {
  std::string out;
  out += "query: " + plan.query + "\n";
  out += "strategy: " + plan.strategy;
  out += "  magic: " + std::string(plan.magic_applied ? "on" : "off");
  out += "  parallelism: " + std::to_string(plan.parallelism);
  out += "  cache: " + std::string(from_cache ? "hit" : "miss") + "\n";
  out += "plan: " + std::to_string(plan.rules_relevant) + " relevant rule(s)";
  if (plan.rules_pruned > 0) {
    out += ", " + std::to_string(plan.rules_pruned) + " pruned";
  }
  out += "\n";
  for (const PlanSummary::Node& node : plan.nodes) {
    out += "  node " + node.label;
    out += node.is_clique ? " [clique]" : " [flat]";
    out += " exit=" + std::to_string(node.exit_rules);
    out += " rec=" + std::to_string(node.recursive_rules);
    out += "\n";
  }
  out += "  final: " + plan.final_select + "\n";

  if (!from_cache) {
    out += "compile: " + std::to_string(compile.total_us()) + " us\n " +
           PhaseList(compile) + "\n";
  }

  if (executed) {
    out += "execute: " + std::to_string(exec.t_total_us) + " us\n";
    out += " " + PhaseList(exec) +
           " planned=" + std::to_string(exec.statements_planned) + "\n";
    for (const lfp::NodeStats& ns : exec.nodes) {
      out += "  node " + ns.label + ": " + std::to_string(ns.iterations) +
             " iteration(s), " + std::to_string(ns.tuples) + " tuple(s), " +
             std::to_string(ns.t_us) + " us";
      if (!ns.delta_sizes.empty()) {
        out += ", deltas=" + JoinDeltas(ns.delta_sizes);
      }
      out += "\n";
    }
    out += "  answers: " + std::to_string(exec.answer_tuples) + "\n";
    out += "counters: rows_scanned=" + std::to_string(db_delta.rows_scanned) +
           " index_probes=" + std::to_string(db_delta.index_probes) +
           " join_rows=" + std::to_string(db_delta.join_output_rows) +
           " statements=" + std::to_string(db_delta.statements) +
           " stmt_cache_hits=" +
           std::to_string(db_delta.statement_cache_hits) +
           " batches=" + std::to_string(db_delta.batches) +
           " morsels=" + std::to_string(db_delta.morsels) + "\n";
  }
  out += "total: " + std::to_string(total_us) + " us\n";

  if (trace != nullptr) {
    out += "trace:\n";
    for (const std::string& line : StrSplit(trace->RenderText(), '\n')) {
      if (!line.empty()) out += "  " + line + "\n";
    }
  }
  return out;
}

std::string QueryReport::ToJson() const {
  std::string out = "{";
  out += "\"query_id\": " + std::to_string(query_id);
  out += ", \"session_id\": " + std::to_string(session_id);
  out += ", \"query\": \"" + JsonEscape(plan.query) + "\"";
  out += ", \"strategy\": \"" + JsonEscape(plan.strategy) + "\"";
  out += ", \"magic_applied\": " + std::string(plan.magic_applied ? "true"
                                                                  : "false");
  out += ", \"parallelism\": " + std::to_string(plan.parallelism);
  out += ", \"shards\": " + std::to_string(plan.shards);
  out += ", \"from_cache\": " + std::string(from_cache ? "true" : "false");
  out += ", \"executed\": " + std::string(executed ? "true" : "false");
  out += ", \"total_us\": " + std::to_string(total_us);
  out += ", \"phases\": {";
  bool first = true;
  for (const PhaseTiming& phase : Phases()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(phase.name) +
           "\": " + std::to_string(phase.micros);
  }
  out += "}";
  out += ", \"compile_total_us\": " + std::to_string(compile.total_us());
  out += ", \"exec_total_us\": " + std::to_string(exec.t_total_us);
  out += ", \"plan\": {\"rules_relevant\": " +
         std::to_string(plan.rules_relevant) +
         ", \"rules_pruned\": " + std::to_string(plan.rules_pruned) +
         ", \"nodes\": [";
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanSummary::Node& node = plan.nodes[i];
    if (i > 0) out += ", ";
    out += "{\"label\": \"" + JsonEscape(node.label) + "\"";
    out += ", \"is_clique\": " + std::string(node.is_clique ? "true"
                                                            : "false");
    out += ", \"exit_rules\": " + std::to_string(node.exit_rules);
    out += ", \"recursive_rules\": " + std::to_string(node.recursive_rules);
    out += "}";
  }
  out += "], \"final_select\": \"" + JsonEscape(plan.final_select) + "\"}";
  if (executed) {
    out += ", \"iterations\": " + std::to_string(exec.iterations);
    out += ", \"answer_tuples\": " + std::to_string(exec.answer_tuples);
    out += ", \"statements_planned\": " +
           std::to_string(exec.statements_planned);
    out += ", \"nodes\": [";
    for (size_t i = 0; i < exec.nodes.size(); ++i) {
      const lfp::NodeStats& ns = exec.nodes[i];
      if (i > 0) out += ", ";
      out += "{\"label\": \"" + JsonEscape(ns.label) + "\"";
      out += ", \"is_clique\": " + std::string(ns.is_clique ? "true"
                                                             : "false");
      out += ", \"t_us\": " + std::to_string(ns.t_us);
      out += ", \"iterations\": " + std::to_string(ns.iterations);
      out += ", \"tuples\": " + std::to_string(ns.tuples);
      out += ", \"delta_sizes\": " + JoinDeltas(ns.delta_sizes);
      out += "}";
    }
    out += "]";
    out += ", \"db\": {\"rows_scanned\": " +
           std::to_string(db_delta.rows_scanned) +
           ", \"index_probes\": " + std::to_string(db_delta.index_probes) +
           ", \"index_rows\": " + std::to_string(db_delta.index_rows) +
           ", \"join_output_rows\": " +
           std::to_string(db_delta.join_output_rows) +
           ", \"statements\": " + std::to_string(db_delta.statements) +
           ", \"statement_cache_hits\": " +
           std::to_string(db_delta.statement_cache_hits) +
           ", \"batches\": " + std::to_string(db_delta.batches) +
           ", \"morsels\": " + std::to_string(db_delta.morsels) + "}";
  }
  if (trace != nullptr) {
    out += ", \"trace\": " + trace->RenderJson();
  }
  out += "}";
  return out;
}

std::string QueryReport::ChromeTrace() const {
  if (trace == nullptr) return "";
  return trace->RenderChromeTrace();
}

}  // namespace dkb::testbed
