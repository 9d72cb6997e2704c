#include "lfp/naive.h"

#include "km/naming.h"
#include "km/rule_sql.h"

namespace dkb::lfp {

Result<int64_t> EvaluateCliqueNaive(EvalContext* ctx,
                                    const km::QueryProgram& program,
                                    const km::ProgramNode& node,
                                    size_t node_index) {
  const std::string np = "#n" + std::to_string(node_index);

  // Every predicate reads its stored relation. During an iteration the
  // member relations hold the previous iteration's value.
  const km::BindingResolver canonical =
      EvalContext::CanonicalResolver(program);

  // Temporaries: #p_new (recomputed value) and #p_diff (termination check).
  for (const std::string& p : node.predicates) {
    const Schema schema = program.bindings.at(p).RelationSchema();
    DKB_RETURN_IF_ERROR(ctx->Temporary(km::NewTableName(p), schema).status());
    DKB_RETURN_IF_ERROR(
        ctx->Temporary(km::DiffTableName(p), schema).status());
  }

  // p^(0): exit rules into the base relations.
  DKB_RETURN_IF_ERROR(ctx->EvalExitRules(program, node, node_index));

  int64_t iterations = 0;
  while (true) {
    ++iterations;
    trace::ScopedSpan iter_span(ctx->span(), "iteration");
    iter_span.Tag("iter", iterations);
    // Recompute every member relation from scratch into #p_new.
    for (const std::string& p : node.predicates) {
      DKB_RETURN_IF_ERROR(ctx->Temp("DELETE FROM " + km::NewTableName(p)));
    }
    DKB_RETURN_IF_ERROR(
        ctx->EvalExitRules(program, node, node_index, /*into_new=*/true));
    for (size_t ri = 0; ri < node.recursive_rules.size(); ++ri) {
      const datalog::Rule& rule = node.recursive_rules[ri];
      DKB_RETURN_IF_ERROR(ctx->EvalRuleInto(
          rule, canonical, km::NewTableName(rule.head.predicate),
          np + "nr" + std::to_string(ri)));
    }

    // Termination: full set difference #p_new - idb_p, then count.
    bool changed = false;
    int64_t delta_total = 0;
    for (const std::string& p : node.predicates) {
      const km::PredicateBinding& b = program.bindings.at(p);
      DKB_RETURN_IF_ERROR(ctx->Temp("DELETE FROM " + km::DiffTableName(p)));
      DKB_RETURN_IF_ERROR(
          ctx->Term("INSERT INTO " + km::DiffTableName(p) +
                    " (SELECT * FROM " + km::NewTableName(p) +
                    ") EXCEPT (SELECT * FROM " + b.table + ")"));
      DKB_ASSIGN_OR_RETURN(int64_t cnt,
                           ctx->TermCount("SELECT COUNT(*) FROM " +
                                          km::DiffTableName(p)));
      if (cnt > 0) changed = true;
      delta_total += cnt;
    }
    ctx->node().delta_sizes.push_back(delta_total);
    iter_span.Tag("delta", delta_total);
    if (!changed) break;

    // Table copy: idb_p := #p_new.
    for (const std::string& p : node.predicates) {
      const km::PredicateBinding& b = program.bindings.at(p);
      DKB_RETURN_IF_ERROR(ctx->Temp("DELETE FROM " + b.table));
      DKB_RETURN_IF_ERROR(ctx->Temp("INSERT INTO " + b.table +
                                    " SELECT * FROM " + km::NewTableName(p)));
    }
  }
  return iterations;
}

}  // namespace dkb::lfp
