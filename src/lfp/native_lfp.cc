#include "lfp/native_lfp.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "lfp/tc_operator.h"

namespace dkb::lfp {

namespace {

/// In-memory relation with set semantics and lazily-built (incrementally
/// extended) hash indexes on arbitrary column subsets.
class NativeRelation {
 public:
  bool Insert(Tuple t) {
    if (!set_.insert(t).second) return false;
    rows_.push_back(std::move(t));
    return true;
  }

  bool Contains(const Tuple& t) const { return set_.count(t) > 0; }
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Hash index keyed by the projection onto `cols`; extended to cover any
  /// rows inserted since the last call (insertion never copies the index).
  const std::unordered_multimap<Tuple, size_t, TupleHash>& IndexOn(
      const std::vector<size_t>& cols) {
    auto& entry = indexes_[cols];
    auto& [built_upto, index] = entry;
    for (size_t r = built_upto; r < rows_.size(); ++r) {
      Tuple key;
      key.reserve(cols.size());
      for (size_t c : cols) key.push_back(rows_[r][c]);
      index.emplace(std::move(key), r);
    }
    built_upto = rows_.size();
    return index;
  }

 private:
  std::vector<Tuple> rows_;
  std::unordered_set<Tuple, TupleHash> set_;
  std::map<std::vector<size_t>,
           std::pair<size_t, std::unordered_multimap<Tuple, size_t, TupleHash>>>
      indexes_;
};

/// Evaluates one rule body as a hash-indexed backtracking join.
/// `body_rels` supplies the relation for each body atom (delta-substituted
/// by the caller); `order` gives the evaluation order of body positions.
void EvalRuleJoin(const datalog::Rule& rule,
                  const std::vector<NativeRelation*>& body_rels,
                  const std::vector<size_t>& order,
                  const std::function<void(Tuple)>& emit) {
  std::unordered_map<std::string, Value> bindings;

  std::function<void(size_t)> descend = [&](size_t depth) {
    if (depth == order.size()) {
      Tuple head;
      head.reserve(rule.head.args.size());
      for (const datalog::Term& t : rule.head.args) {
        head.push_back(t.is_constant() ? t.value : bindings.at(t.var));
      }
      emit(std::move(head));
      return;
    }
    size_t pos = order[depth];
    const datalog::Atom& atom = rule.body[pos];
    NativeRelation* rel = body_rels[pos];

    if (atom.is_builtin()) {
      // Comparison filter over bound values (ordered after the positive
      // atoms that bind them).
      auto value_of = [&](const datalog::Term& t) {
        return t.is_constant() ? t.value : bindings.at(t.var);
      };
      Value l = value_of(atom.args[0]);
      Value r = value_of(atom.args[1]);
      bool pass = false;
      if (atom.predicate == "<") pass = l < r;
      else if (atom.predicate == "<=") pass = l <= r;
      else if (atom.predicate == ">") pass = l > r;
      else if (atom.predicate == ">=") pass = l >= r;
      else if (atom.predicate == "=") pass = l == r;
      else if (atom.predicate == "!=") pass = l != r;
      if (pass) descend(depth + 1);
      return;
    }

    if (atom.negated) {
      // Ordered after all positive atoms, so every argument is bound
      // (safety is checked at compile time): a pure membership test.
      Tuple key;
      key.reserve(atom.args.size());
      for (const datalog::Term& t : atom.args) {
        key.push_back(t.is_constant() ? t.value : bindings.at(t.var));
      }
      if (!rel->Contains(key)) descend(depth + 1);
      return;
    }

    // Split argument positions into bound (constant / already-bound
    // variable) and free.
    std::vector<size_t> bound_cols;
    Tuple key;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const datalog::Term& t = atom.args[i];
      if (t.is_constant()) {
        bound_cols.push_back(i);
        key.push_back(t.value);
      } else if (auto it = bindings.find(t.var); it != bindings.end()) {
        bound_cols.push_back(i);
        key.push_back(it->second);
      }
    }

    auto try_row = [&](const Tuple& row) {
      // Bind free variables, checking intra-atom repeats.
      std::vector<std::string> newly_bound;
      bool ok = true;
      for (size_t i = 0; i < atom.args.size() && ok; ++i) {
        const datalog::Term& t = atom.args[i];
        if (t.is_constant()) {
          if (!(row[i] == t.value)) ok = false;
          continue;
        }
        auto it = bindings.find(t.var);
        if (it == bindings.end()) {
          bindings.emplace(t.var, row[i]);
          newly_bound.push_back(t.var);
        } else if (!(it->second == row[i])) {
          ok = false;
        }
      }
      if (ok) descend(depth + 1);
      for (const std::string& v : newly_bound) bindings.erase(v);
    };

    if (!bound_cols.empty()) {
      const auto& index = rel->IndexOn(bound_cols);
      auto [lo, hi] = index.equal_range(key);
      for (auto it = lo; it != hi; ++it) try_row(rel->rows()[it->second]);
    } else {
      // Full scan over a snapshot-size bound (the relation cannot grow
      // during evaluation in this evaluator, but be explicit).
      size_t n = rel->size();
      for (size_t r = 0; r < n; ++r) try_row(rel->rows()[r]);
    }
  };

  descend(0);
}

/// Body evaluation order: the delta position first (most selective), then
/// the remaining positive atoms left to right, then built-in comparison
/// filters, then negated atoms (filter/negation variables are all bound by
/// then, per the safety check).
std::vector<size_t> JoinOrder(const datalog::Rule& rule,
                              std::optional<size_t> delta_first) {
  std::vector<size_t> order;
  if (delta_first.has_value()) order.push_back(*delta_first);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (delta_first.has_value() && i == *delta_first) continue;
    if (!rule.body[i].negated && !rule.body[i].is_builtin()) {
      order.push_back(i);
    }
  }
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (rule.body[i].is_builtin()) order.push_back(i);
  }
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (rule.body[i].negated) order.push_back(i);
  }
  return order;
}

/// One program node evaluated in memory. The relations its rules read are
/// loaded from their tables on first use; the node's own relations start
/// empty and are appended to their IDB tables once the fixpoint is reached.
class NativeNode {
 public:
  NativeNode(EvalContext* ctx, const km::QueryProgram& program,
             const km::ProgramNode& node)
      : ctx_(ctx), program_(program), node_(node) {}

  Result<int64_t> Evaluate(bool use_tc_operator) {
    int64_t iterations = 0;
    TcShape shape;
    if (use_tc_operator && MatchesTransitiveClosure(node_, &shape)) {
      DKB_RETURN_IF_ERROR(EvalTransitiveClosure(shape));
      iterations = 1;  // single pass, no fixpoint loop
    } else {
      DKB_ASSIGN_OR_RETURN(iterations, EvalSemiNaive());
    }
    DKB_RETURN_IF_ERROR(StoreDerived());
    return iterations;
  }

 private:
  ExecutionStats* stats() { return ctx_->stats(); }

  /// Relation for `pred`, loading it on first use from its stored table or
  /// from the run's IDB relation of an earlier node.
  Result<NativeRelation*> Rel(const std::string& pred) {
    auto it = relations_.find(pred);
    if (it != relations_.end()) return it->second.get();
    ScopedAccumulator acc(&stats()->t_temp_ns);
    auto binding_it = program_.bindings.find(pred);
    if (binding_it == program_.bindings.end()) {
      return Status::Internal("no binding for " + pred);
    }
    DKB_ASSIGN_OR_RETURN(ScanSource * table,
                         ctx_->Source(binding_it->second.table));
    auto rel = std::make_unique<NativeRelation>();
    table->Scan([&rel](RowId, const Tuple& row) { rel->Insert(row); },
                ctx_->db()->catalog().read_epoch());
    NativeRelation* raw = rel.get();
    relations_.emplace(pred, std::move(rel));
    return raw;
  }

  Result<std::vector<NativeRelation*>> BodyRels(const datalog::Rule& rule) {
    std::vector<NativeRelation*> rels;
    rels.reserve(rule.body.size());
    for (const datalog::Atom& atom : rule.body) {
      if (atom.is_builtin()) {
        rels.push_back(nullptr);  // filters have no backing relation
        continue;
      }
      DKB_ASSIGN_OR_RETURN(NativeRelation * rel, Rel(atom.predicate));
      rels.push_back(rel);
    }
    return rels;
  }

  /// Exit rules, then (for a clique) semi-naive iteration to the fixpoint.
  Result<int64_t> EvalSemiNaive() {
    std::set<std::string> members(node_.predicates.begin(),
                                  node_.predicates.end());
    std::map<std::string, std::unique_ptr<NativeRelation>> delta;
    for (const std::string& p : node_.predicates) {
      relations_[p] = std::make_unique<NativeRelation>();
      delta[p] = std::make_unique<NativeRelation>();
    }

    // Exit rules populate the initial relations; the initial delta is the
    // whole relation.
    {
      ScopedAccumulator acc(&stats()->t_rhs_ns);
      for (const km::CompiledRule& cr : node_.exit_rules) {
        NativeRelation* full = relations_.at(cr.rule.head.predicate).get();
        NativeRelation* d = delta.at(cr.rule.head.predicate).get();
        if (cr.rule.body.empty()) {
          // The seed's arguments are the run's parameters.
          Tuple seed = ctx_->params();
          if (seed.size() != cr.rule.head.args.size()) {
            return Status::Internal("seed " + cr.rule.ToString() + " takes " +
                                    std::to_string(seed.size()) +
                                    " parameter(s)");
          }
          if (full->Insert(seed)) d->Insert(std::move(seed));
          continue;
        }
        DKB_ASSIGN_OR_RETURN(std::vector<NativeRelation*> rels,
                             BodyRels(cr.rule));
        EvalRuleJoin(cr.rule, rels, JoinOrder(cr.rule, std::nullopt),
                     [&](Tuple t) {
                       if (full->Insert(t)) d->Insert(std::move(t));
                     });
      }
    }

    if (!node_.is_clique) return 0;

    int64_t iterations = 0;
    while (true) {
      ++iterations;
      trace::ScopedSpan iter_span(ctx_->span(), "iteration");
      iter_span.Tag("iter", iterations);
      std::map<std::string, std::unique_ptr<NativeRelation>> new_delta;
      for (const std::string& p : node_.predicates) {
        new_delta[p] = std::make_unique<NativeRelation>();
      }
      {
        ScopedAccumulator acc(&stats()->t_rhs_ns);
        for (const datalog::Rule& rule : node_.recursive_rules) {
          DKB_ASSIGN_OR_RETURN(std::vector<NativeRelation*> rels,
                               BodyRels(rule));
          NativeRelation* full = relations_.at(rule.head.predicate).get();
          NativeRelation* nd = new_delta.at(rule.head.predicate).get();
          for (size_t i = 0; i < rule.body.size(); ++i) {
            if (members.count(rule.body[i].predicate) == 0) continue;
            // Variant: position i reads the delta, the rest read the full
            // current relations (over-covering differential).
            std::vector<NativeRelation*> variant = rels;
            variant[i] = delta.at(rule.body[i].predicate).get();
            EvalRuleJoin(rule, variant, JoinOrder(rule, i),
                         [&](Tuple t) {
                           // Early-exit membership test (no set difference).
                           if (!full->Contains(t)) nd->Insert(std::move(t));
                         });
          }
        }
      }

      // Termination: all deltas empty.
      bool changed = false;
      int64_t delta_total = 0;
      {
        ScopedAccumulator acc(&stats()->t_term_ns);
        for (const auto& [p, nd] : new_delta) {
          if (!nd->empty()) changed = true;
          delta_total += static_cast<int64_t>(nd->size());
        }
      }
      ctx_->node().delta_sizes.push_back(delta_total);
      iter_span.Tag("delta", delta_total);
      if (!changed) break;

      // Merge deltas (incremental index extension, no copies) and swap the
      // delta pointers.
      {
        ScopedAccumulator acc(&stats()->t_rhs_ns);
        for (const std::string& p : node_.predicates) {
          NativeRelation* full = relations_.at(p).get();
          for (const Tuple& t : new_delta.at(p)->rows()) full->Insert(t);
          delta[p] = std::move(new_delta.at(p));
        }
      }
    }
    return iterations;
  }

  /// Specialized transitive-closure operator (paper conclusion #8): one
  /// BFS per source over the edge adjacency list, bypassing the generic
  /// join/delta machinery entirely.
  Status EvalTransitiveClosure(const TcShape& shape) {
    DKB_ASSIGN_OR_RETURN(NativeRelation * edges, Rel(shape.edge_predicate));
    auto full = std::make_unique<NativeRelation>();
    {
      ScopedAccumulator acc(&stats()->t_rhs_ns);
      std::vector<Tuple> closure;
      ComputeTransitiveClosure(edges->rows(), &closure);
      for (Tuple& t : closure) full->Insert(std::move(t));
    }
    relations_[shape.predicate] = std::move(full);
    return Status::OK();
  }

  /// Appends the node's derived relations to the run's IDB relations, a
  /// batch at a time (Table::AppendBatch interns and maintains indexes per
  /// batch).
  Status StoreDerived() {
    ScopedAccumulator acc(&stats()->t_temp_ns);
    RowBatch batch;
    for (const std::string& p : node_.predicates) {
      const km::PredicateBinding& b = program_.bindings.at(p);
      DKB_ASSIGN_OR_RETURN(ScanSource * table, ctx_->Source(b.table));
      batch.Reset(table->schema().num_columns());
      for (const Tuple& t : relations_.at(p)->rows()) {
        batch.AppendRow(t);
        if (batch.full()) {
          DKB_RETURN_IF_ERROR(table->AppendBatch(batch));
          batch.Reset(table->schema().num_columns());
        }
      }
      if (!batch.empty()) DKB_RETURN_IF_ERROR(table->AppendBatch(batch));
    }
    return Status::OK();
  }

  EvalContext* ctx_;
  const km::QueryProgram& program_;
  const km::ProgramNode& node_;
  std::map<std::string, std::unique_ptr<NativeRelation>> relations_;
};

/// The node's NodeRun: a fresh in-memory evaluation per run.
class NativeNodeRun : public NodeRun {
 public:
  NativeNodeRun(const km::QueryProgram& program, const km::ProgramNode& node,
                bool use_tc_operator)
      : program_(program), node_(node), use_tc_operator_(use_tc_operator) {}

  Result<int64_t> Evaluate(EvalContext* ctx) override {
    return NativeNode(ctx, program_, node_).Evaluate(use_tc_operator_);
  }

 private:
  const km::QueryProgram& program_;
  const km::ProgramNode& node_;
  bool use_tc_operator_;
};

}  // namespace

std::unique_ptr<NodeRun> BuildNativeNode(const km::QueryProgram& program,
                                         const km::ProgramNode& node,
                                         bool use_tc_operator) {
  return std::make_unique<NativeNodeRun>(program, node, use_tc_operator);
}

}  // namespace dkb::lfp
