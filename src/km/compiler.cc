#include "km/compiler.h"

#include <algorithm>
#include <deque>

#include "common/timer.h"
#include "km/naming.h"
#include "magic/magic_sets.h"
#include "sql/parser.h"

namespace dkb::km {

namespace {

using datalog::Atom;
using datalog::HeadPredicates;
using datalog::Rule;
using trace::ScopedPhase;

/// Estimates the fraction of extensional tuples relevant to the query by a
/// bounded breadth-first expansion from the query constants over the binary
/// base relations the query reaches. The traversal direction follows the
/// binding position: a constant in the query's first argument propagates
/// forward along edges (ancestor^bf style), a constant in a later argument
/// propagates backward (ancestor^fb). Exploration stops early — returning a
/// fraction at or above `threshold`, treated as "high" — once it has
/// touched that much of the data; the estimate only needs to be accurate
/// around the decision boundary.
Result<double> EstimateSelectivity(const Atom& query,
                                   const std::set<std::string>& base_preds,
                                   const std::map<std::string, PredicateTypes>&
                                       base_types,
                                   StoredDkb* stored, double threshold) {
  std::map<Value, std::vector<Value>> forward;
  std::map<Value, std::vector<Value>> backward;
  int64_t d_tot = 0;
  for (const std::string& pred : base_preds) {
    auto it = base_types.find(pred);
    if (it == base_types.end() || it->second.size() != 2) continue;
    DKB_ASSIGN_OR_RETURN(ScanSource * table,
                         stored->db()->catalog().GetSource(EdbTableName(pred)));
    d_tot += static_cast<int64_t>(table->num_tuples());
    table->Scan(
        [&forward, &backward](RowId, const Tuple& row) {
          forward[row[0]].push_back(row[1]);
          backward[row[1]].push_back(row[0]);
        },
        stored->db()->catalog().read_epoch());
  }
  if (d_tot == 0) return 0.0;

  // Seed per direction from the constant positions.
  struct Walk {
    const std::map<Value, std::vector<Value>>* adjacency;
    std::set<Value> visited;
    std::deque<Value> frontier;
  };
  Walk walks[2] = {{&forward, {}, {}}, {&backward, {}, {}}};
  for (size_t i = 0; i < query.args.size(); ++i) {
    const datalog::Term& t = query.args[i];
    if (!t.is_constant()) continue;
    Walk& walk = walks[i == 0 ? 0 : 1];
    if (walk.visited.insert(t.value).second) walk.frontier.push_back(t.value);
  }
  if (walks[0].frontier.empty() && walks[1].frontier.empty()) return 1.0;

  const int64_t budget =
      std::max<int64_t>(64, static_cast<int64_t>(threshold * d_tot) + 1);
  int64_t touched = 0;  // directed edge traversals, capped at D_tot-ish
  for (Walk& walk : walks) {
    while (!walk.frontier.empty() && touched < budget) {
      Value node = std::move(walk.frontier.front());
      walk.frontier.pop_front();
      auto it = walk.adjacency->find(node);
      if (it == walk.adjacency->end()) continue;
      for (const Value& next : it->second) {
        ++touched;
        if (walk.visited.insert(next).second) walk.frontier.push_back(next);
      }
    }
  }
  return std::min(1.0,
                  static_cast<double>(touched) / static_cast<double>(d_tot));
}

/// A goal's form: its predicate plus, per argument, the variable's name or
/// ':' and the constant's type (no variable name starts with ':').
std::string GoalForm(const Atom& goal) {
  std::string form = goal.predicate + "(";
  for (size_t i = 0; i < goal.args.size(); ++i) {
    const datalog::Term& t = goal.args[i];
    if (i > 0) form += ",";
    if (t.is_variable()) {
      form += t.var;
    } else {
      form += ":";
      form += DataTypeName(t.value.type());
    }
  }
  return form + ")";
}

}  // namespace

std::string QueryFormKey(const Atom& goal, const CompilerOptions& options) {
  std::string key;
  switch (options.magic_mode) {
    case MagicMode::kOff:
      key = GoalForm(goal) + "#plain";
      break;
    case MagicMode::kOn:
      key = GoalForm(goal) + "#magic";
      break;
    case MagicMode::kAdaptive:
      key = goal.ToString() + "#adaptive";
      break;
  }
  if (options.magic_variant == magic::MagicVariant::kSupplementary) {
    key += "#sup";
  }
  return key;
}

Result<Atom> BindGoal(const CompiledQuery& compiled, const Atom& goal) {
  if (GoalForm(goal) != GoalForm(compiled.original_query)) {
    return Status::InvalidArgument(
        "cannot bind a program compiled for " +
        compiled.original_query.ToString() + " to " + goal.ToString() +
        ": the goals differ in form");
  }
  Atom query = compiled.program.query;
  query.args = goal.args;
  return query;
}

Result<CompiledQuery> QueryCompiler::Compile(const Atom& query,
                                             const CompilerOptions& options,
                                             CompilationStats* stats) {
  CompilationStats local;
  if (stats == nullptr) stats = &local;
  *stats = CompilationStats{};
  stats->query_id = options.query_id;

  CompiledQuery out;
  out.original_query = query;

  // Step 1 (t_setup): reachable set over the Workspace DKB.
  std::vector<Rule> relevant;
  std::set<std::string> reachable;  // P: query predicate + all reachable
  {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_setup_us);
    Pcg ws_pcg;
    ws_pcg.AddNode(query.predicate);
    for (const Rule& rule : workspace_->rules()) ws_pcg.AddRule(rule);
    reachable = ws_pcg.Reachable(query.predicate);
    reachable.insert(query.predicate);
    for (const Rule& rule : workspace_->rules()) {
      if (reachable.count(rule.head.predicate) > 0) relevant.push_back(rule);
    }
  }

  // Steps 1.3-1.5 (t_extract): alternate between Stored-DKB extraction and
  // Workspace closure until the relevant sets stop growing.
  {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_extract_us);
    while (true) {
      size_t before = relevant.size();
      DKB_ASSIGN_OR_RETURN(std::vector<Rule> extracted,
                           stored_->ExtractRelevantRules(reachable));
      for (Rule& rule : extracted) {
        if (std::find(relevant.begin(), relevant.end(), rule) ==
            relevant.end()) {
          relevant.push_back(std::move(rule));
          ++stats->rules_extracted_stored;
        }
      }
      // Recompute the reachable set over the merged rules; pull in any
      // workspace rules that became relevant.
      Pcg pcg;
      pcg.AddNode(query.predicate);
      for (const Rule& rule : relevant) pcg.AddRule(rule);
      for (const Rule& rule : workspace_->rules()) pcg.AddRule(rule);
      std::set<std::string> now = pcg.Reachable(query.predicate);
      now.insert(query.predicate);
      for (const Rule& rule : workspace_->rules()) {
        if (now.count(rule.head.predicate) > 0 &&
            std::find(relevant.begin(), relevant.end(), rule) ==
                relevant.end()) {
          relevant.push_back(rule);
        }
      }
      reachable = std::move(now);
      if (relevant.size() == before) break;
    }
  }
  stats->rules_relevant = static_cast<int64_t>(relevant.size());
  out.relevant_rules = relevant;

  std::set<std::string> derived = HeadPredicates(relevant);
  stats->preds_relevant = static_cast<int64_t>(derived.size());

  if (derived.count(query.predicate) == 0 &&
      !stored_->HasBasePredicate(query.predicate)) {
    return Status::SemanticError("query predicate " + query.predicate +
                                 " is not defined by any rule or base "
                                 "relation");
  }

  // Step: read the data dictionaries (t_read). Base predicates are every
  // reachable predicate that is not derived.
  std::map<std::string, PredicateTypes> base_types;
  std::set<std::string> base_preds;
  {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_read_us);
    for (const std::string& p : reachable) {
      if (derived.count(p) == 0) base_preds.insert(p);
    }
    if (derived.count(query.predicate) == 0) {
      base_preds.insert(query.predicate);
    }
    DKB_ASSIGN_OR_RETURN(base_types, stored_->ReadEdbDictionary(base_preds));
    for (const std::string& p : base_preds) {
      if (base_types.count(p) == 0) {
        return Status::SemanticError(
            "predicate " + p + " is neither defined by rules nor a known "
            "base predicate");
      }
    }
    // The paper also reads the IDB dictionary here to obtain precomputed
    // derived-predicate types; we read it for the same cost profile and
    // cross-check against inference below.
    DKB_ASSIGN_OR_RETURN(auto idb_dict, stored_->ReadIdbDictionary(derived));
    (void)idb_dict;
  }

  // Static analysis (t_analyze): prune duplicate/unsatisfiable/dead rules,
  // verify stratification, and compute the achievable adornment set that
  // bounds the magic rewrite. The pruned rule set is what gets compiled.
  magic::AdornmentFilter adornment_filter;
  bool have_adornment_filter = false;
  {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_analyze_us);
    analysis::AnalyzerInput input;
    input.rules = relevant;
    input.goal = &query;
    input.base_predicates = base_preds;
    for (const std::string& pred : base_preds) {
      auto table = stored_->db()->catalog().GetSource(EdbTableName(pred));
      if (table.ok()) {
        input.base_cardinalities[pred] =
            static_cast<int64_t>((*table)->num_tuples());
      }
    }
    analysis::AnalysisResult analyzed = analysis::AnalyzeProgram(input);
    if (analyzed.engine.HasErrors()) {
      return Status::SemanticError(analyzed.engine.FirstError());
    }
    // Adopt the pruned rule set only when it is self-contained: pruning
    // must not leave the goal without a definition (a provably-empty query
    // still compiles and returns no rows, as before) or orphan a predicate
    // that surviving rules still reference (e.g. only negatively).
    bool adopt = !analyzed.goal_provably_empty;
    if (adopt) {
      std::set<std::string> surviving = HeadPredicates(analyzed.rules);
      for (const Rule& rule : analyzed.rules) {
        for (const Atom& atom : rule.body) {
          if (atom.is_builtin()) continue;
          if (surviving.count(atom.predicate) == 0 &&
              base_preds.count(atom.predicate) == 0) {
            adopt = false;
          }
        }
      }
    }
    if (adopt) {
      stats->rules_pruned =
          static_cast<int64_t>(relevant.size() - analyzed.rules.size());
      relevant = analyzed.rules;
      derived = HeadPredicates(relevant);
      adornment_filter.allowed = analyzed.adornments;
      have_adornment_filter = true;
    }
    out.analysis = std::move(analyzed);
  }

  // Optimization (t_opt): generalized magic sets, optionally gated by the
  // dynamic selectivity estimate.
  std::vector<Rule> eval_rules = std::move(relevant);
  Atom effective_query = query;
  bool apply_magic = options.magic_mode == MagicMode::kOn;
  if (options.magic_mode == MagicMode::kAdaptive) {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_opt_us);
    DKB_ASSIGN_OR_RETURN(
        double selectivity,
        EstimateSelectivity(query, base_preds, base_types, stored_,
                            kAdaptiveMagicThreshold));
    stats->estimated_selectivity = selectivity;
    apply_magic = selectivity < kAdaptiveMagicThreshold;
  }
  if (apply_magic) {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_opt_us);
    DKB_ASSIGN_OR_RETURN(
        magic::MagicRewrite rewrite,
        magic::ApplyGeneralizedMagicSets(
            eval_rules, query, derived, options.magic_variant,
            have_adornment_filter ? &adornment_filter : nullptr));
    stats->magic_applied = rewrite.rewritten;
    eval_rules = std::move(rewrite.rules);
    effective_query = rewrite.adorned_query;
    derived = HeadPredicates(eval_rules);
  }

  // Cliques + evaluation order list (t_eol).
  EvaluationOrder order;
  {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_eol_us);
    DKB_ASSIGN_OR_RETURN(order, BuildEvaluationOrder(eval_rules, derived));
  }

  // Semantic checks (t_sem): definedness + type inference.
  TypeCheckResult types;
  {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_sem_us);
    DKB_ASSIGN_OR_RETURN(types, TypeCheck(eval_rules, base_types));
  }

  // Code generation (t_gen).
  {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_gen_us);
    DKB_ASSIGN_OR_RETURN(
        out.program, GenerateProgram(order, types.derived_types, base_types,
                                     effective_query));
  }

  // "Compile & link" (t_comp): parse every generated SQL text, the analogue
  // of compiling the emitted C fragment against the run time library.
  {
    ScopedPhase phase(options.span, stats, &CompilationStats::t_comp_us);
    for (const std::string& sql : out.program.AllSqlTexts()) {
      DKB_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseStatement(sql));
      (void)stmt;
    }
  }

  RoundPhases(stats);
  out.summary = stats->Summary();
  return out;
}

}  // namespace dkb::km
