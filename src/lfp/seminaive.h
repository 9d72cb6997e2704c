#ifndef DKB_LFP_SEMINAIVE_H_
#define DKB_LFP_SEMINAIVE_H_

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
/// unions the variants into #p_new, keeps the rows new to the accumulated
/// relation as the next delta, and terminates when all deltas are empty.
///
/// Every iteration works in proportion to its delta. The variants are the
/// program's precompiled RuleVariants, bound and planned once per run and
/// re-opened each iteration. Each IDB table only grows during the run, so
/// the delta and the previous relation are SlotWindows over it, not
/// tables; the termination step probes only the rows #p_new holds against
/// the relation's dedup index and appends the survivors to the IDB table.
/// #p_new (plus the binding tables of rules with negation) is the only
/// temporary; it and the windows are RunRelations of the node.
///
/// Returns the number of iterations. `node_index` must be the node's
/// position in `program` (the variants' binding-table names carry it, so
/// independent nodes can evaluate concurrently).
Result<int64_t> EvaluateCliqueSemiNaive(EvalContext* ctx,
                                        const km::QueryProgram& program,
                                        const km::ProgramNode& node,
                                        size_t node_index = 0);

}  // namespace dkb::lfp

#endif  // DKB_LFP_SEMINAIVE_H_
