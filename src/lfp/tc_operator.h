#ifndef DKB_LFP_TC_OPERATOR_H_
#define DKB_LFP_TC_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "km/codegen.h"
#include "lfp/eval_context.h"
#include "storage/tuple.h"

namespace dkb::lfp {

/// Shape of a clique recognized as a plain transitive closure
/// (paper conclusion #8: the DBMS interface should offer special LFP
/// operators like transitive closure that can be executed better than the
/// general operator).
///
/// Recognized cliques: a single binary predicate p whose exit rules are all
///   p(X, Y) :- e(X, Y).
/// over one edge relation e, and whose recursive rules are each one of
///   p(X, Y) :- e(X, Z), p(Z, Y).      (right-linear)
///   p(X, Y) :- p(X, Z), e(Z, Y).      (left-linear)
///   p(X, Y) :- p(X, Z), p(Z, Y).      (non-linear)
/// with the same e. All such programs compute p = e+.
struct TcShape {
  std::string predicate;       // p
  std::string edge_predicate;  // e
};

/// Returns true (filling *shape) if `node` is a transitive-closure clique.
bool MatchesTransitiveClosure(const km::ProgramNode& node, TcShape* shape);

/// Computes e+ directly: builds an adjacency list over `edges` and runs one
/// breadth-first traversal per source node — no joins, no deltas, no
/// termination checks. Appends (src, dst) pairs to `out`.
void ComputeTransitiveClosure(const std::vector<Tuple>& edges,
                              std::vector<Tuple>* out);

/// kNativeTc's node for a clique of `shape`: each run reads the edge
/// relation through EvalContext::Source, computes its closure with
/// ComputeTransitiveClosure and inserts the rows (distinct by construction)
/// into the predicate's IDB relation, all in the RHS bucket. Evaluate
/// returns 1: a single pass, no fixpoint loop. The node keeps no state
/// between runs.
std::unique_ptr<NodeRun> BuildTcNode(const km::QueryProgram& program,
                                     const TcShape& shape);

}  // namespace dkb::lfp

#endif  // DKB_LFP_TC_OPERATOR_H_
