#include "lfp/evaluator.h"

#include <map>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "lfp/eval_context.h"
#include "lfp/instance.h"

namespace dkb::lfp {

namespace {

/// Evaluates program node `node_index` end to end through its NodeRun,
/// appending its NodeStats to ctx's stats. `node_span` (may be null) becomes
/// the node's trace span: the evaluators hang per-iteration children off it
/// via ctx->span().
Status RunOneNode(EvalContext* ctx, const km::QueryProgram& program,
                  size_t node_index, NodeRun* run,
                  trace::TraceSpan* node_span) {
  const km::ProgramNode& node = program.nodes[node_index];
  WallTimer node_timer;
  ctx->set_span(node_span);
  DKB_ASSIGN_OR_RETURN(const int64_t iterations, run->Evaluate(ctx));
  NodeStats ns = std::move(ctx->node());
  ns.label = node.Label();
  ns.is_clique = node.is_clique;
  ns.iterations = iterations;
  ctx->set_span(nullptr);
  for (const std::string& p : node.predicates) {
    DKB_ASSIGN_OR_RETURN(ScanSource * relation,
                         ctx->Source(program.bindings.at(p).table));
    ns.tuples += static_cast<int64_t>(relation->num_tuples());
  }
  ns.t_us = node_timer.ElapsedMicros();
  if (node_span != nullptr) {
    node_span->Tag("iterations", iterations);
    node_span->Tag("tuples", ns.tuples);
    node_span->End();
  }
  ctx->stats()->nodes.push_back(std::move(ns));
  ctx->stats()->iterations += iterations;
  return Status::OK();
}

/// The program-level node loop of every strategy: a topological-wavefront
/// scheduler where node j waits on node i iff a rule of j mentions a
/// predicate i defines. With a null `pool` each wave runs inline on the
/// caller (width 1, the serial case); otherwise the independent nodes of a
/// wave evaluate concurrently on the pool — they write disjoint relations
/// (node i's temporaries live in (*scopes)[i], its state in (*runs)[i]), and
/// the shared DBMS plumbing (catalog map, statement cache, counters) is
/// thread-safe. Each node accumulates into private ExecutionStats and a
/// detached trace span; both merge into `stats` and `parent` in program
/// order, so the reported breakdown and the span tree are deterministic
/// whatever the width.
Status RunNodes(Database* db, const km::QueryProgram& program,
                ThreadPool* pool, std::vector<RunRelations>* scopes,
                std::vector<std::unique_ptr<NodeRun>>* runs,
                const std::vector<Value>* params, ExecutionStats* stats,
                trace::TraceSpan* parent) {
  const size_t n = program.nodes.size();
  std::map<std::string, size_t> defined_by;
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& p : program.nodes[i].predicates) {
      defined_by[p] = i;
    }
  }
  std::vector<std::vector<size_t>> deps(n);
  for (size_t i = 0; i < n; ++i) {
    auto add_dep = [&](const std::string& pred) {
      auto it = defined_by.find(pred);
      if (it != defined_by.end() && it->second != i) {
        deps[i].push_back(it->second);
      }
    };
    for (const km::CompiledRule& cr : program.nodes[i].exit_rules) {
      for (const datalog::Atom& atom : cr.rule.body) {
        add_dep(atom.predicate);
      }
    }
    for (const datalog::Rule& rule : program.nodes[i].recursive_rules) {
      for (const datalog::Atom& atom : rule.body) {
        add_dep(atom.predicate);
      }
    }
  }

  std::vector<ExecutionStats> locals(n);
  std::vector<std::unique_ptr<trace::TraceSpan>> node_spans(n);
  std::vector<Status> results(n, Status::OK());
  auto run_node = [&](size_t i) {
    EvalContext node_ctx(db, &locals[i], &(*scopes)[i], params);
    if (parent != nullptr) {
      node_spans[i] = parent->context()->Detach(
          "node:" + program.nodes[i].Label());
    }
    results[i] = RunOneNode(&node_ctx, program, i, (*runs)[i].get(),
                            node_spans[i].get());
  };

  Status status = Status::OK();
  std::vector<bool> done(n, false);
  size_t completed = 0;
  while (completed < n && status.ok()) {
    std::vector<size_t> wave;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      bool ready = true;
      for (size_t d : deps[i]) {
        if (!done[d]) {
          ready = false;
          break;
        }
      }
      if (ready) wave.push_back(i);
    }
    if (wave.empty()) {
      return Status::Internal("cyclic dependency between program nodes");
    }
    if (pool == nullptr) {
      for (size_t i : wave) run_node(i);
    } else {
      pool->ParallelFor(0, wave.size(), [&](size_t w) { run_node(wave[w]); });
    }
    for (size_t i : wave) {
      done[i] = true;
      ++completed;
      if (status.ok()) status = results[i];
    }
  }

  for (size_t i = 0; i < n; ++i) {
    stats->t_temp_ns += locals[i].t_temp_ns;
    stats->t_rhs_ns += locals[i].t_rhs_ns;
    stats->t_term_ns += locals[i].t_term_ns;
    stats->iterations += locals[i].iterations;
    stats->statements_planned += locals[i].statements_planned;
    for (NodeStats& ns : locals[i].nodes) {
      stats->nodes.push_back(std::move(ns));
    }
    if (node_spans[i] != nullptr) parent->Adopt(std::move(node_spans[i]));
  }
  return status;
}

}  // namespace

const char* StrategyName(LfpStrategy strategy) {
  switch (strategy) {
    case LfpStrategy::kNaive:
      return "naive";
    case LfpStrategy::kSemiNaive:
      return "semi-naive";
    case LfpStrategy::kNativeTc:
      return "native-lfp+tc";
  }
  return "unknown";
}

Result<QueryResult> RunProgram(Database* db, const km::QueryProgram& program,
                               const datalog::Atom& query,
                               const EvalOptions& options,
                               std::unique_ptr<ProgramInstance>* keep,
                               ExecutionStats* stats) {
  ExecutionStats local;
  if (stats == nullptr) stats = &local;
  *stats = ExecutionStats{};
  stats->query_id = options.query_id;

  WallTimer total;
  std::unique_ptr<ProgramInstance> own;
  std::unique_ptr<ProgramInstance>& instance = keep != nullptr ? *keep : own;
  Status status = Status::OK();
  {
    // The run's relations and plans, built unless an idle instance of this
    // program can serve the run; bucket-less, as planning feeds rhs and final.
    trace::ScopedPhase temp_span(options.span,
                                 PhaseOf(&ExecutionStats::t_temp_us).name);
    if (instance != nullptr &&
        !instance->ReusableFor(*db, program, options.strategy)) {
      trace::ScopedPhase phase(&stats->t_temp_ns);
      instance.reset();
    }
    if (instance == nullptr) {
      instance.reset(new ProgramInstance(db, program, options.strategy));
      status = instance->Build(stats);
    }
    instance->params_ = km::QueryParameters(query);
  }

  // Resolve the parallelism knob to a pool for the waves: none (inline)
  // at width 1 or for a single node, the global pool for 0, and a private
  // pool of N - 1 workers for N > 1 (the caller is the N-th).
  std::unique_ptr<ThreadPool> wave_pool;
  ThreadPool* pool = nullptr;
  if (program.nodes.size() > 1) {
    if (options.parallelism == 0 && GlobalThreadPool().num_threads() > 0) {
      pool = &GlobalThreadPool();
    } else if (options.parallelism > 1) {
      wave_pool = std::make_unique<ThreadPool>(
          static_cast<size_t>(options.parallelism - 1));
      pool = wave_pool.get();
    }
  }
  if (status.ok()) {
    status = RunNodes(db, program, pool, &instance->scopes_,
                      &instance->nodes_, &instance->params_, stats,
                      options.span);
  }

  Result<QueryResult> answer = status;
  if (status.ok()) {
    trace::ScopedPhase phase(options.span, stats, &ExecutionStats::t_final_us);
    answer = instance->Answer();
  }

  // Empty the instance for its next run, or free it: after any failure,
  // and always when it is the run's own. Freeing what planning built
  // counts where planning counted; the relations are the temp bucket's.
  {
    trace::ScopedPhase cleanup_span(options.span, "cleanup");
    if (keep != nullptr && answer.ok()) {
      trace::ScopedPhase phase(&stats->t_temp_ns);
      instance->Clear();
    } else {
      {
        trace::ScopedPhase phase(&stats->t_rhs_ns);
        instance->ReleasePlans();
      }
      trace::ScopedPhase phase(&stats->t_temp_ns);
      instance.reset();
    }
  }
  RoundPhases(stats);
  if (answer.ok()) {
    stats->answer_tuples = static_cast<int64_t>(answer->rows.size());
  }
  stats->t_total_us = total.ElapsedMicros();
  return answer;
}

Result<QueryResult> ExecuteProgram(Database* db,
                                   const km::QueryProgram& program,
                                   const EvalOptions& options,
                                   ExecutionStats* stats) {
  return RunProgram(db, program, program.query, options, /*keep=*/nullptr,
                    stats);
}

}  // namespace dkb::lfp
