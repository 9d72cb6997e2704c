#ifndef DKB_KM_COMPILER_H_
#define DKB_KM_COMPILER_H_

#include <string>

#include "common/status.h"
#include "common/trace.h"
#include "datalog/ast.h"
#include "km/analysis/analyzer.h"
#include "km/codegen.h"
#include "km/stored_dkb.h"
#include "km/workspace.h"
#include "magic/magic_sets.h"

namespace dkb::km {

/// Per-compilation timing breakdown (paper §5.3.1.1, Table 4).
struct CompilationStats {
  /// Flight-recorder query id this compilation belongs to (copied from
  /// CompilerOptions::query_id; 0 when no recorder is attached).
  int64_t query_id = 0;
  int64_t t_setup_us = 0;    // query data structures, PCG, reachability
  int64_t t_extract_us = 0;  // relevant-rule extraction from the Stored DKB
  int64_t t_read_us = 0;     // data dictionary reads
  int64_t t_analyze_us = 0;  // static analysis (pruning, strata, adornments)
  int64_t t_opt_us = 0;      // magic sets rewrite (0 when disabled)
  int64_t t_eol_us = 0;      // cliques + evaluation order list
  int64_t t_sem_us = 0;      // semantic checks / type inference
  int64_t t_gen_us = 0;      // code (SQL program) generation
  int64_t t_comp_us = 0;     // "compile & link": parsing every generated
                             // SQL text (DESIGN.md substitution #2)
  /// The phases' buckets: Compile rounds each into its _us field once.
  int64_t t_setup_ns = 0, t_extract_ns = 0, t_read_ns = 0, t_analyze_ns = 0,
          t_opt_ns = 0, t_eol_ns = 0, t_sem_ns = 0, t_gen_ns = 0, t_comp_ns = 0;

  int64_t rules_relevant = 0;          // |R| after closure
  int64_t rules_extracted_stored = 0;  // rules pulled from the Stored DKB
  int64_t preds_relevant = 0;          // |P| derived predicates
  int64_t rules_pruned = 0;            // rules dropped by static analysis

  bool magic_applied = false;          // rewrite actually changed the rules
  double estimated_selectivity = -1.0;  // adaptive mode only; -1 = not run

  int64_t total_us() const { return SumPhases(*this); }

  /// Table 4's phases in order; each names its compile child span.
  static constexpr PhaseField<CompilationStats> kPhases[] = {
      {"setup", &CompilationStats::t_setup_us, &CompilationStats::t_setup_ns},
      {"extract", &CompilationStats::t_extract_us,
       &CompilationStats::t_extract_ns},
      {"read", &CompilationStats::t_read_us, &CompilationStats::t_read_ns},
      {"analyze", &CompilationStats::t_analyze_us,
       &CompilationStats::t_analyze_ns},
      {"opt", &CompilationStats::t_opt_us, &CompilationStats::t_opt_ns},
      {"eol", &CompilationStats::t_eol_us, &CompilationStats::t_eol_ns},
      {"sem", &CompilationStats::t_sem_us, &CompilationStats::t_sem_ns},
      {"gen", &CompilationStats::t_gen_us, &CompilationStats::t_gen_ns},
      {"comp", &CompilationStats::t_comp_us, &CompilationStats::t_comp_ns},
  };

  /// The counts and the magic decision without the timings or query id:
  /// what a precompiled program reports for every query it serves.
  CompilationStats Summary() const {
    CompilationStats s = *this;
    s.query_id = 0;
    for (const auto& phase : kPhases) s.*phase.us = s.*phase.ns = 0;
    return s;
  }
};

/// Whether to apply the generalized magic sets rewrite.
enum class MagicMode {
  kOff,
  kOn,
  /// The dynamic strategy the paper proposes but did not implement
  /// (conclusion #4 / §4.2 step 5): estimate the query's selectivity with a
  /// bounded exploration of the extensional database from the query
  /// constants, and enable the optimization only when the estimated
  /// relevant fraction is below kAdaptiveMagicThreshold.
  kAdaptive,
};

/// Adaptive mode applies magic when the estimated D_rel/D_tot is below this.
inline constexpr double kAdaptiveMagicThreshold = 0.6;

struct CompilerOptions {
  /// Flight-recorder query id to stamp into CompilationStats (observability
  /// correlation only; does not affect compilation).
  int64_t query_id = 0;
  MagicMode magic_mode = MagicMode::kOff;
  /// Rewrite flavour when magic is applied (generalized vs supplementary).
  magic::MagicVariant magic_variant = magic::MagicVariant::kGeneralized;
  /// Parent trace span for this compilation; when set, each Table 4 phase
  /// (setup, extract, read, ...) becomes a child span. Null (the default)
  /// disables tracing at the cost of a pointer test per phase.
  trace::TraceSpan* span = nullptr;
};

/// The result of D/KB query compilation: the object program plus the rule
/// set it was generated from.
struct CompiledQuery {
  datalog::Atom original_query;
  QueryProgram program;
  std::vector<datalog::Rule> relevant_rules;  // pre-rewrite relevant rules
  /// Static-analysis output over the relevant rules: diagnostics, strata,
  /// achievable adornments, cardinality annotations, and the pruned rule
  /// set that was actually compiled (analysis.rules). It depends only on
  /// the goal's form, but its diagnostics name the goal it was compiled for.
  analysis::AnalysisResult analysis;
  /// CompilationStats::Summary() of the compilation that built the program.
  CompilationStats summary;
};

/// The precompiled-program key of `goal` under `options` (paper conclusion
/// #3): the goal's form, meaning its predicate plus, per argument, the
/// variable's name or the constant's type, plus the magic mode and
/// variant (the other options keep their defaults on every cached
/// compilation). Variable names are part of the form because they name the
/// answer columns, and a repeated variable becomes a conjunct. Goals of one
/// form compile to the same program, which takes their constants as
/// parameters (BindGoal). Adaptive magic keys the whole goal instead: its magic decision
/// depends on the constants' selectivity.
std::string QueryFormKey(const datalog::Atom& goal,
                         const CompilerOptions& options);

/// The query atom a run of `compiled`'s program binds for `goal`, which
/// must have the form of the goal `compiled` was built for: the program's
/// (possibly adorned) query predicate with `goal`'s arguments. The program
/// takes the goal's constants as parameters (QueryParameters of this atom),
/// so binding regenerates no SQL text and `compiled`, shared by every goal
/// of the form, is not copied.
Result<datalog::Atom> BindGoal(const CompiledQuery& compiled,
                               const datalog::Atom& goal);

/// D/KB query compiler implementing the processing algorithm of paper §4.2:
/// reachability over the union of Workspace and Stored DKBs, relevant-rule
/// extraction, dictionary reads, optional magic optimization, clique
/// analysis and evaluation ordering, semantic checks, and code generation.
class QueryCompiler {
 public:
  QueryCompiler(const Workspace* workspace, StoredDkb* stored)
      : workspace_(workspace), stored_(stored) {}

  Result<CompiledQuery> Compile(const datalog::Atom& query,
                                const CompilerOptions& options,
                                CompilationStats* stats);

 private:
  const Workspace* workspace_;
  StoredDkb* stored_;
};

}  // namespace dkb::km

#endif  // DKB_KM_COMPILER_H_
