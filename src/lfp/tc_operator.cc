#include "lfp/tc_operator.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/trace.h"
#include "storage/table.h"

namespace dkb::lfp {

namespace {

using datalog::Atom;
using datalog::Rule;
using datalog::Term;

/// True if `atom` is pred(V1, V2) for the given distinct variable names.
bool IsVarPair(const Atom& atom, const std::string& pred,
               const std::string& v1, const std::string& v2) {
  return !atom.negated && atom.predicate == pred && atom.args.size() == 2 &&
         atom.args[0].is_variable() && atom.args[0].var == v1 &&
         atom.args[1].is_variable() && atom.args[1].var == v2;
}

/// Head must be p(X, Y) with X != Y; returns the variable names.
bool HeadVars(const Rule& rule, std::string* x, std::string* y) {
  const Atom& head = rule.head;
  if (head.args.size() != 2 || !head.args[0].is_variable() ||
      !head.args[1].is_variable() ||
      head.args[0].var == head.args[1].var) {
    return false;
  }
  *x = head.args[0].var;
  *y = head.args[1].var;
  return true;
}

/// What BuildTcNode returns: the IDB relation gets e+ in one pass.
class TcNode : public NodeRun {
 public:
  TcNode(std::string edge_table, std::string closure_table)
      : edge_table_(std::move(edge_table)),
        closure_table_(std::move(closure_table)) {}

  Result<int64_t> Evaluate(EvalContext* ctx) override {
    trace::ScopedPhase phase(&ctx->stats()->t_rhs_ns);
    DKB_ASSIGN_OR_RETURN(ScanSource * edges, ctx->Source(edge_table_));
    DKB_ASSIGN_OR_RETURN(ScanSource * closure, ctx->Source(closure_table_));
    std::vector<Tuple> edge_rows;
    edges->Scan(
        [&edge_rows](RowId, const Tuple& row) { edge_rows.push_back(row); },
        ctx->db()->catalog().read_epoch());
    std::vector<Tuple> rows;
    ComputeTransitiveClosure(edge_rows, &rows);
    for (Tuple& row : rows) {
      DKB_RETURN_IF_ERROR(closure->Insert(std::move(row)).status());
    }
    return 1;
  }

 private:
  std::string edge_table_;
  std::string closure_table_;
};

}  // namespace

bool MatchesTransitiveClosure(const km::ProgramNode& node, TcShape* shape) {
  if (!node.is_clique || node.predicates.size() != 1) return false;
  const std::string& p = node.predicates[0];
  if (node.exit_rules.empty() || node.recursive_rules.empty()) return false;

  std::string edge;
  // Exit rules: p(X,Y) :- e(X,Y), all with the same e != p.
  for (const km::CompiledRule& cr : node.exit_rules) {
    std::string x;
    std::string y;
    if (!HeadVars(cr.rule, &x, &y)) return false;
    if (cr.rule.body.size() != 1) return false;
    const Atom& b = cr.rule.body[0];
    if (b.negated || b.predicate == p || !IsVarPair(b, b.predicate, x, y)) {
      return false;
    }
    if (edge.empty()) {
      edge = b.predicate;
    } else if (edge != b.predicate) {
      return false;
    }
  }

  // Recursive rules: right-linear, left-linear, or non-linear over the same
  // edge relation.
  for (const Rule& rule : node.recursive_rules) {
    std::string x;
    std::string y;
    if (!HeadVars(rule, &x, &y)) return false;
    if (rule.body.size() != 2) return false;
    const Atom& a0 = rule.body[0];
    const Atom& a1 = rule.body[1];
    if (a0.negated || a1.negated) return false;
    // Find the join variable Z: a0 = q0(X, Z), a1 = q1(Z, Y).
    if (a0.args.size() != 2 || a1.args.size() != 2) return false;
    if (!a0.args[1].is_variable()) return false;
    std::string z = a0.args[1].var;
    if (z == x || z == y) return false;
    bool right_linear = IsVarPair(a0, edge, x, z) && IsVarPair(a1, p, z, y);
    bool left_linear = IsVarPair(a0, p, x, z) && IsVarPair(a1, edge, z, y);
    bool non_linear = IsVarPair(a0, p, x, z) && IsVarPair(a1, p, z, y);
    if (!right_linear && !left_linear && !non_linear) return false;
  }

  shape->predicate = p;
  shape->edge_predicate = edge;
  return true;
}

void ComputeTransitiveClosure(const std::vector<Tuple>& edges,
                              std::vector<Tuple>* out) {
  // Adjacency list over interned values.
  std::unordered_map<Value, std::vector<const Value*>, ValueHash> adjacency;
  for (const Tuple& edge : edges) {
    adjacency[edge[0]].push_back(&edge[1]);
  }
  // One BFS per source.
  for (const auto& [src, direct] : adjacency) {
    (void)direct;
    std::unordered_set<Value, ValueHash> visited;
    std::deque<const Value*> frontier;
    auto expand = [&](const Value& node) {
      auto it = adjacency.find(node);
      if (it == adjacency.end()) return;
      for (const Value* next : it->second) {
        if (visited.insert(*next).second) frontier.push_back(next);
      }
    };
    expand(src);
    while (!frontier.empty()) {
      const Value* node = frontier.front();
      frontier.pop_front();
      out->push_back(Tuple{src, *node});
      expand(*node);
    }
  }
}

std::unique_ptr<NodeRun> BuildTcNode(const km::QueryProgram& program,
                                     const TcShape& shape) {
  return std::make_unique<TcNode>(
      program.bindings.at(shape.edge_predicate).table,
      program.bindings.at(shape.predicate).table);
}

}  // namespace dkb::lfp
