#ifndef DKB_LFP_NAIVE_H_
#define DKB_LFP_NAIVE_H_

#include <memory>

#include "km/codegen.h"
#include "lfp/eval_context.h"

namespace dkb::lfp {

/// Naive LFP evaluation of one clique (paper §3.3): every iteration
/// recomputes the full head relations from the previous iteration's
/// relations, checks termination with a full set difference, and copies the
/// new relations over the old ones.
///
/// The build creates the #p_new and #p_diff temporaries and plans the exit
/// rules twice, into the IDB relations (p^(0)) and into #p_new (each
/// iteration's recompute). Everything else is the paper's per-iteration SQL,
/// generated, planned and run every iteration: naive is the Table 5
/// baseline.
///
/// Evaluate returns the number of iterations. `node_index` must be the
/// node's position in `program` (it prefixes the binding pipeline's
/// temporaries).
Result<std::unique_ptr<NodeRun>> BuildNaiveClique(
    EvalContext* ctx, const km::QueryProgram& program,
    const km::ProgramNode& node, size_t node_index);

}  // namespace dkb::lfp

#endif  // DKB_LFP_NAIVE_H_
