#ifndef DKB_LFP_NATIVE_LFP_H_
#define DKB_LFP_NATIVE_LFP_H_

#include <memory>

#include "km/codegen.h"
#include "lfp/eval_context.h"

namespace dkb::lfp {

/// In-engine generalized LFP operator (paper conclusion #6 ablation),
/// evaluating one program node.
///
/// Instead of driving the DBMS through per-statement SQL, this evaluator
/// pulls the relations the node's rules read into memory, runs semi-naive
/// iteration with hash-indexed joins, swaps delta sets by pointer (no table
/// copies), and checks termination by delta emptiness (no full set
/// difference). Before returning it appends the node's derived relations to
/// the run's IDB relations, so later nodes and the answer query see the
/// same state as under the SQL evaluators.
///
/// Time attribution: relation load/store -> t_temp, join evaluation ->
/// t_rhs, (trivial) termination checks -> t_term.
///
/// With `use_tc_operator`, a clique matching the transitive-closure shape
/// is evaluated by the specialized BFS operator instead of generic
/// semi-naive iteration (paper conclusion #8).
///
/// A seed fact (the magic seed) takes the run's parameters, the goal's
/// constants, like the SQL strategies' planned seed INSERT. The node keeps
/// no state between runs: its in-memory relations live for one Evaluate.
///
/// Evaluate returns the number of iterations: 0 for a non-recursive node, 1
/// for the transitive-closure operator's single pass.
std::unique_ptr<NodeRun> BuildNativeNode(const km::QueryProgram& program,
                                         const km::ProgramNode& node,
                                         bool use_tc_operator);

}  // namespace dkb::lfp

#endif  // DKB_LFP_NATIVE_LFP_H_
