#include "lfp/eval_context.h"

#include "common/metrics.h"
#include "common/str_util.h"
#include "km/naming.h"
#include "storage/sharded_table.h"

namespace dkb::lfp {

namespace {

/// INSERT the (distinct) result of `select` into `table`, skipping rows
/// already present: INSERT INTO t (select) EXCEPT (SELECT * FROM t).
std::string InsertNewSql(const std::string& table, const std::string& select) {
  return "INSERT INTO " + table + " (" + select + ") EXCEPT (SELECT * FROM " +
         table + ")";
}

/// A node that only runs its exit rules.
class ExitRulesNode : public NodeRun {
 public:
  explicit ExitRulesNode(ExitRules rules) : rules_(std::move(rules)) {}

  Result<int64_t> Evaluate(EvalContext* ctx) override {
    DKB_RETURN_IF_ERROR(rules_.Run(ctx));
    return 0;
  }

 private:
  ExitRules rules_;
};

}  // namespace

Result<ScanSource*> RunRelations::Empty(const std::string& name,
                                        const Schema& schema) {
  if (ScanSource* existing = Find(name)) {
    // Names resolve case-insensitively: `name` may only reuse itself.
    if (existing->name() != name) {
      return Status::AlreadyExists("relation " + name + " collides with " +
                                   existing->name());
    }
    existing->Clear();
    return existing;
  }
  std::unique_ptr<ScanSource> source = MakeSource(name, schema, shards_);
  ScanSource* raw = source.get();
  DKB_RETURN_IF_ERROR(Add(std::move(source)));
  return raw;
}

Status RunRelations::Add(std::unique_ptr<ScanSource> source) {
  auto [it, added] = names_.emplace(AsciiLower(source->name()), source.get());
  if (!added) {
    return Status::AlreadyExists("relation " + source->name() +
                                 " collides with " + it->second->name());
  }
  owned_.push_back(std::move(source));
  static metrics::Counter& built =
      metrics::GlobalMetrics().counter("dkb.lfp.relations_built");
  built.Add(1);
  return Status::OK();
}

ScanSource* RunRelations::Find(const std::string& name) const {
  auto it = names_.find(AsciiLower(name));
  return it == names_.end() ? nullptr : it->second;
}

void RunRelations::Clear() {
  for (std::unique_ptr<ScanSource>& source : owned_) source->Clear();
}

int64_t RunRelations::ApproxBytes() const {
  int64_t bytes = 0;
  for (const std::unique_ptr<ScanSource>& source : owned_) {
    if (dynamic_cast<const SlotWindow*>(source.get()) != nullptr) continue;
    for (size_t s = 0; s < source->shard_count(); ++s) {
      bytes += static_cast<int64_t>(source->shard(s).ApproxBytes());
    }
  }
  return bytes;
}

Status EvalContext::Temp(const std::string& sql) {
  trace::ScopedPhase phase(&stats_->t_temp_ns);
  ++stats_->statements_planned;
  return db_->Execute(sql, &relations_->names()).status();
}

Status EvalContext::Rhs(const std::string& sql) {
  trace::ScopedPhase phase(&stats_->t_rhs_ns);
  ++stats_->statements_planned;
  return db_->Execute(sql, &relations_->names()).status();
}

Result<PlannedStatement> EvalContext::Plan(const std::string& sql) {
  trace::ScopedPhase phase(&stats_->t_rhs_ns);
  ++stats_->statements_planned;
  DKB_ASSIGN_OR_RETURN(PlannedStatement planned,
                       db_->Plan(sql, &relations_->names()));
  planned_snapshot_ = planned_snapshot_ || planned.reads_snapshot();
  return planned;
}

Status EvalContext::Rhs(PlannedStatement* statement) {
  trace::ScopedPhase phase(&stats_->t_rhs_ns);
  return statement->Run().status();
}

Status EvalContext::Term(const std::string& sql) {
  trace::ScopedPhase phase(&stats_->t_term_ns);
  ++stats_->statements_planned;
  return db_->Execute(sql, &relations_->names()).status();
}

Result<int64_t> EvalContext::TermCount(const std::string& count_sql) {
  trace::ScopedPhase phase(&stats_->t_term_ns);
  ++stats_->statements_planned;
  DKB_ASSIGN_OR_RETURN(QueryResult count,
                       db_->Execute(count_sql, &relations_->names()));
  return count.rows[0][0].as_int();  // COUNT(*) yields exactly one row
}

Result<ScanSource*> EvalContext::Temporary(const std::string& name,
                                           const Schema& schema) {
  trace::ScopedPhase phase(&stats_->t_temp_ns);
  return relations_->Empty(name, schema);
}

Result<ScanSource*> EvalContext::Source(const std::string& name) {
  if (ScanSource* own = relations_->Find(name)) return own;
  return db_->catalog().GetSource(name);
}

Status EvalContext::EvalRuleInto(const datalog::Rule& rule,
                                 const km::BindingResolver& resolver,
                                 const std::string& target,
                                 const std::string& bind_prefix) {
  DKB_ASSIGN_OR_RETURN(
      km::RuleSqlProgram program,
      km::RuleToSqlProgram(rule, resolver, target, bind_prefix));
  for (const auto& bind : program.bind_tables) {
    DKB_RETURN_IF_ERROR(Temporary(bind.name, bind.schema).status());
  }
  for (const std::string& sql : program.statements) {
    DKB_RETURN_IF_ERROR(Rhs(sql));
  }
  return Status::OK();
}

km::BindingResolver EvalContext::CanonicalResolver(
    const km::QueryProgram& program) {
  return [&program](const datalog::Atom& atom,
                    size_t) -> Result<km::RelationBinding> {
    auto it = program.bindings.find(atom.predicate);
    if (it == program.bindings.end()) {
      return Status::Internal("no binding for " + atom.predicate);
    }
    return it->second.AsRelation();
  };
}

Result<ExitRules> ExitRules::Plan(EvalContext* ctx,
                                  const km::QueryProgram& program,
                                  const km::ProgramNode& node,
                                  size_t node_index, bool into_new) {
  // Both plans of a naive node share the binding-table names; each run
  // empties the tables before its pipelines.
  const std::string np = "#n" + std::to_string(node_index) + "x";
  ExitRules out;
  for (size_t i = 0; i < node.exit_rules.size(); ++i) {
    const km::CompiledRule& cr = node.exit_rules[i];
    const std::string& head = cr.rule.head.predicate;
    const std::string target =
        into_new ? km::NewTableName(head) : program.bindings.at(head).table;
    std::vector<std::string> statements;
    if (cr.rule.body.empty()) {
      out.seeds_.push_back(out.statements_.size());
      statements.push_back(km::SeedInsertSql(cr.rule, target));
    } else if (!cr.select_sql.empty()) {
      statements.push_back(InsertNewSql(target, cr.select_sql));
    } else {
      DKB_ASSIGN_OR_RETURN(
          km::RuleSqlProgram pipeline,
          km::RuleToSqlProgram(cr.rule, EvalContext::CanonicalResolver(program),
                               target, np + std::to_string(i)));
      for (const km::RuleSqlProgram::BindTable& bind : pipeline.bind_tables) {
        DKB_ASSIGN_OR_RETURN(ScanSource * table,
                             ctx->Temporary(bind.name, bind.schema));
        out.bind_tables_.push_back(table);
      }
      statements = std::move(pipeline.statements);
    }
    for (const std::string& sql : statements) {
      DKB_ASSIGN_OR_RETURN(PlannedStatement planned, ctx->Plan(sql));
      out.statements_.push_back(std::move(planned));
    }
  }
  return out;
}

Status ExitRules::Run(EvalContext* ctx) {
  if (!bind_tables_.empty()) {
    trace::ScopedPhase phase(&ctx->stats()->t_temp_ns);
    for (ScanSource* table : bind_tables_) table->Clear();
  }
  for (size_t s : seeds_) {
    PlannedStatement& seed = statements_[s];
    if (seed.param_count() != ctx->params().size()) {
      return Status::Internal("a seed takes " +
                              std::to_string(seed.param_count()) +
                              " parameter(s), the goal has " +
                              std::to_string(ctx->params().size()));
    }
    for (size_t k = 0; k < seed.param_count(); ++k) {
      DKB_RETURN_IF_ERROR(seed.Bind(k, ctx->params()[k]));
    }
  }
  for (PlannedStatement& statement : statements_) {
    DKB_RETURN_IF_ERROR(ctx->Rhs(&statement));
  }
  return Status::OK();
}

Result<std::unique_ptr<NodeRun>> BuildExitRulesNode(
    EvalContext* ctx, const km::QueryProgram& program,
    const km::ProgramNode& node, size_t node_index) {
  DKB_ASSIGN_OR_RETURN(
      ExitRules rules,
      ExitRules::Plan(ctx, program, node, node_index, /*into_new=*/false));
  return std::unique_ptr<NodeRun>(
      std::make_unique<ExitRulesNode>(std::move(rules)));
}

}  // namespace dkb::lfp
