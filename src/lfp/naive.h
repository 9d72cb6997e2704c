#ifndef DKB_LFP_NAIVE_H_
#define DKB_LFP_NAIVE_H_

#include "km/codegen.h"
#include "lfp/eval_context.h"

namespace dkb::lfp {

/// Naive LFP evaluation of one clique (paper §3.3): every iteration
/// recomputes the full head relations from the previous iteration's
/// relations, checks termination with a full set difference, and copies the
/// new relations over the old ones.
///
/// Returns the number of iterations. `node_index` must be the node's
/// position in `program` (it prefixes the binding pipeline's temporaries).
Result<int64_t> EvaluateCliqueNaive(EvalContext* ctx,
                                    const km::QueryProgram& program,
                                    const km::ProgramNode& node,
                                    size_t node_index = 0);

}  // namespace dkb::lfp

#endif  // DKB_LFP_NAIVE_H_
