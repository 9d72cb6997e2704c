#include "lfp/seminaive.h"

#include <set>

#include "km/naming.h"
#include "km/rule_sql.h"

namespace dkb::lfp {

Result<int64_t> EvaluateCliqueSemiNaive(EvalContext* ctx,
                                        const km::QueryProgram& program,
                                        const km::ProgramNode& node,
                                        size_t node_index) {
  const std::set<std::string> members(node.predicates.begin(),
                                      node.predicates.end());
  const std::string np = "#n" + std::to_string(node_index);

  // Temp tables per member: delta, prev (value before the last delta was
  // merged), new (variant union), diff (new delta / termination check).
  for (const std::string& p : node.predicates) {
    const km::PredicateBinding& b = program.bindings.at(p);
    DKB_RETURN_IF_ERROR(ctx->CreateLike(km::DeltaTableName(p), b));
    DKB_RETURN_IF_ERROR(ctx->CreateLike(km::PrevTableName(p), b));
    DKB_RETURN_IF_ERROR(ctx->CreateLike(km::NewTableName(p), b));
    DKB_RETURN_IF_ERROR(ctx->CreateLike(km::DiffTableName(p), b));
  }

  // p^(0): exit rules.
  DKB_RETURN_IF_ERROR(ctx->EvalExitRules(program, node, node_index));
  // delta^(0) = p^(0); prev = p^(-1) = empty.
  for (const std::string& p : node.predicates) {
    DKB_RETURN_IF_ERROR(
        ctx->CopyTable(km::DeltaTableName(p), program.bindings.at(p).table));
  }

  // The per-iteration termination step (diff := new - full, plus its count)
  // runs batch-native through EvalContext::DiffInto — a hash-set difference
  // keyed on interned values — instead of the prepared
  // INSERT ... EXCEPT + COUNT(*) statement pair of the SQL-driven engine.

  int64_t iterations = 0;
  while (true) {
    ++iterations;
    trace::ScopedSpan iter_span(ctx->span(), "iteration");
    iter_span.Tag("iter", iterations);
    for (const std::string& p : node.predicates) {
      DKB_RETURN_IF_ERROR(ctx->ClearTable(km::NewTableName(p)));
    }

    // Differential variants of each recursive rule. Negated atoms are
    // never clique members (stratification), so they are unaffected by the
    // delta substitution.
    size_t rule_counter = 0;
    for (const datalog::Rule& rule : node.recursive_rules) {
      ++rule_counter;
      std::vector<size_t> member_positions;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (!rule.body[i].negated &&
            members.count(rule.body[i].predicate) > 0) {
          member_positions.push_back(i);
        }
      }
      for (size_t delta_pos : member_positions) {
        km::BindingResolver resolver =
            [&program, &members, delta_pos](
                const datalog::Atom& atom,
                size_t body_index) -> Result<km::RelationBinding> {
          auto it = program.bindings.find(atom.predicate);
          if (it == program.bindings.end()) {
            return Status::Internal("no binding for " + atom.predicate);
          }
          km::RelationBinding binding = it->second.AsRelation();
          if (members.count(atom.predicate) == 0) return binding;
          if (body_index == delta_pos) {
            binding.table = km::DeltaTableName(atom.predicate);
          } else if (body_index > delta_pos) {
            binding.table = km::PrevTableName(atom.predicate);
          }
          // body_index < delta_pos keeps the current full relation.
          return binding;
        };
        DKB_RETURN_IF_ERROR(ctx->EvalRuleInto(
            rule, resolver, km::NewTableName(rule.head.predicate),
            np + "sr" + std::to_string(rule_counter) + "_" +
                std::to_string(delta_pos)));
      }
    }

    // New delta + termination check: diff = new - accumulated.
    bool changed = false;
    int64_t delta_total = 0;
    for (const std::string& p : node.predicates) {
      DKB_RETURN_IF_ERROR(ctx->ClearTable(km::DiffTableName(p)));
      DKB_ASSIGN_OR_RETURN(
          int64_t cnt,
          ctx->DiffInto(km::DiffTableName(p), km::NewTableName(p),
                        program.bindings.at(p).table));
      if (cnt > 0) changed = true;
      delta_total += cnt;
    }
    ctx->delta_sizes().push_back(delta_total);
    iter_span.Tag("delta", delta_total);
    if (!changed) break;

    // prev := full; full += diff; delta := diff.
    for (const std::string& p : node.predicates) {
      const km::PredicateBinding& b = program.bindings.at(p);
      DKB_RETURN_IF_ERROR(ctx->ClearTable(km::PrevTableName(p)));
      DKB_RETURN_IF_ERROR(ctx->CopyTable(km::PrevTableName(p), b.table));
      DKB_RETURN_IF_ERROR(ctx->CopyTable(b.table, km::DiffTableName(p)));
      DKB_RETURN_IF_ERROR(ctx->ClearTable(km::DeltaTableName(p)));
      DKB_RETURN_IF_ERROR(
          ctx->CopyTable(km::DeltaTableName(p), km::DiffTableName(p)));
    }
  }

  for (const std::string& p : node.predicates) {
    DKB_RETURN_IF_ERROR(ctx->Drop(km::DeltaTableName(p)));
    DKB_RETURN_IF_ERROR(ctx->Drop(km::PrevTableName(p)));
    DKB_RETURN_IF_ERROR(ctx->Drop(km::NewTableName(p)));
    DKB_RETURN_IF_ERROR(ctx->Drop(km::DiffTableName(p)));
  }
  return iterations;
}

}  // namespace dkb::lfp
