#ifndef DKB_LFP_SEMINAIVE_H_
#define DKB_LFP_SEMINAIVE_H_

#include <memory>

#include "km/codegen.h"
#include "lfp/eval_context.h"

namespace dkb::lfp {

/// Semi-naive LFP evaluation of one clique using the differential approach
/// (paper §3.3/§4(i)): each iteration evaluates, for every recursive rule
/// and every occurrence i of a clique predicate in its body, the variant
///
///   prefix(j < i) -> current full relation
///   occurrence i  -> last delta
///   suffix(j > i) -> previous full relation
///
/// absorbs the variants' rows that are new to the accumulated relation as
/// the next delta, and terminates when all deltas are empty.
///
/// Every iteration works in proportion to its delta. The build plans the
/// program's precompiled RuleVariants and the exit rules once, for every
/// run of the instance; each iteration re-opens the variant plans, and each
/// variant's last statement is a plain SELECT. Each IDB relation only grows
/// during a run, so the delta and the previous relation are SlotWindows over
/// it, not tables. The exit rules insert p^(0) straight into the IDB
/// relation. Each iteration runs every variant first (RHS bucket), then the
/// termination step probes the rows the SELECTs returned against the
/// relation's dedup index and appends the survivors (term bucket), so the
/// relations never change while an iteration's statements run. No temporary
/// holds derived rows; the only temporaries are the binding tables of rules
/// with negation, and they and the windows are RunRelations of the node.
///
/// Evaluate returns the number of iterations. `node_index` must be the
/// node's position in `program` (the variants' binding-table names carry
/// it, so independent nodes can evaluate concurrently).
Result<std::unique_ptr<NodeRun>> BuildSemiNaiveClique(
    EvalContext* ctx, const km::QueryProgram& program,
    const km::ProgramNode& node, size_t node_index);

}  // namespace dkb::lfp

#endif  // DKB_LFP_SEMINAIVE_H_
