#include "lfp/naive.h"

#include "km/naming.h"
#include "km/rule_sql.h"

namespace dkb::lfp {

namespace {

class NaiveClique : public NodeRun {
 public:
  NaiveClique(const km::QueryProgram& program, const km::ProgramNode& node,
              size_t node_index)
      : program_(program), node_(node), node_index_(node_index) {}

  Status Build(EvalContext* ctx) {
    // Temporaries: #p_new (recomputed value) and #p_diff (termination
    // check).
    for (const std::string& p : node_.predicates) {
      const Schema schema = program_.bindings.at(p).RelationSchema();
      DKB_RETURN_IF_ERROR(
          ctx->Temporary(km::NewTableName(p), schema).status());
      DKB_RETURN_IF_ERROR(
          ctx->Temporary(km::DiffTableName(p), schema).status());
    }
    DKB_ASSIGN_OR_RETURN(exits_, ExitRules::Plan(ctx, program_, node_,
                                                 node_index_,
                                                 /*into_new=*/false));
    DKB_ASSIGN_OR_RETURN(recompute_, ExitRules::Plan(ctx, program_, node_,
                                                     node_index_,
                                                     /*into_new=*/true));
    return Status::OK();
  }

  Result<int64_t> Evaluate(EvalContext* ctx) override {
    const std::string np = "#n" + std::to_string(node_index_);

    // Every predicate reads its stored relation. During an iteration the
    // member relations hold the previous iteration's value.
    const km::BindingResolver canonical =
        EvalContext::CanonicalResolver(program_);

    // p^(0): exit rules into the base relations.
    DKB_RETURN_IF_ERROR(exits_.Run(ctx));

    int64_t iterations = 0;
    while (true) {
      ++iterations;
      trace::ScopedPhase iter_span(ctx->span(), "iteration");
      iter_span.Tag("iter", iterations);
      // Recompute every member relation from scratch into #p_new.
      for (const std::string& p : node_.predicates) {
        DKB_RETURN_IF_ERROR(ctx->Temp("DELETE FROM " + km::NewTableName(p)));
      }
      DKB_RETURN_IF_ERROR(recompute_.Run(ctx));
      for (size_t ri = 0; ri < node_.recursive_rules.size(); ++ri) {
        const datalog::Rule& rule = node_.recursive_rules[ri];
        DKB_RETURN_IF_ERROR(ctx->EvalRuleInto(
            rule, canonical, km::NewTableName(rule.head.predicate),
            np + "nr" + std::to_string(ri)));
      }

      // Termination: full set difference #p_new - idb_p, then count.
      bool changed = false;
      int64_t delta_total = 0;
      for (const std::string& p : node_.predicates) {
        const km::PredicateBinding& b = program_.bindings.at(p);
        DKB_RETURN_IF_ERROR(
            ctx->Temp("DELETE FROM " + km::DiffTableName(p)));
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
      for (const std::string& p : node_.predicates) {
        const km::PredicateBinding& b = program_.bindings.at(p);
        DKB_RETURN_IF_ERROR(ctx->Temp("DELETE FROM " + b.table));
        DKB_RETURN_IF_ERROR(ctx->Temp("INSERT INTO " + b.table +
                                      " SELECT * FROM " +
                                      km::NewTableName(p)));
      }
    }
    return iterations;
  }

 private:
  const km::QueryProgram& program_;
  const km::ProgramNode& node_;
  size_t node_index_;
  ExitRules exits_;      // into the IDB relations
  ExitRules recompute_;  // into #p_new
};

}  // namespace

Result<std::unique_ptr<NodeRun>> BuildNaiveClique(
    EvalContext* ctx, const km::QueryProgram& program,
    const km::ProgramNode& node, size_t node_index) {
  auto clique = std::make_unique<NaiveClique>(program, node, node_index);
  DKB_RETURN_IF_ERROR(clique->Build(ctx));
  return std::unique_ptr<NodeRun>(std::move(clique));
}

}  // namespace dkb::lfp
