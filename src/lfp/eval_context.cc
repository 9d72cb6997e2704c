#include "lfp/eval_context.h"

#include "common/timer.h"
#include "km/naming.h"

namespace dkb::lfp {

namespace {

/// Seed-fact INSERT ... VALUES text for an empty-body rule.
std::string SeedInsertSql(const datalog::Rule& seed,
                          const std::string& table) {
  std::string sql = "INSERT INTO " + table + " VALUES (";
  for (size_t i = 0; i < seed.head.args.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += seed.head.args[i].value.ToSqlLiteral();
  }
  sql += ")";
  return sql;
}

/// INSERT the (distinct) result of `select` into `table`, skipping rows
/// already present: INSERT INTO t (select) EXCEPT (SELECT * FROM t).
std::string InsertNewSql(const std::string& table, const std::string& select) {
  return "INSERT INTO " + table + " (" + select + ") EXCEPT (SELECT * FROM " +
         table + ")";
}

}  // namespace

Status EvalContext::Temp(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_temp_us);
  return db_->Execute(sql).status();
}

Status EvalContext::Rhs(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_rhs_us);
  return db_->Execute(sql).status();
}

Result<PlannedStatement> EvalContext::Plan(const std::string& sql,
                                           const exec::NamedSources* sources) {
  ScopedAccumulator acc(&stats_->t_rhs_us);
  return db_->Plan(sql, sources);
}

Status EvalContext::Rhs(PlannedStatement* statement) {
  ScopedAccumulator acc(&stats_->t_rhs_us);
  return statement->Run().status();
}

Status EvalContext::Term(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_term_us);
  return db_->Execute(sql).status();
}

Result<int64_t> EvalContext::TermCount(const std::string& count_sql) {
  ScopedAccumulator acc(&stats_->t_term_us);
  return db_->QueryCount(count_sql);
}

Status EvalContext::CreateLike(const std::string& name,
                               const km::PredicateBinding& binding) {
  std::vector<Column> columns;
  columns.reserve(binding.columns.size());
  for (size_t i = 0; i < binding.columns.size(); ++i) {
    columns.push_back({binding.columns[i], binding.types[i]});
  }
  return CreateWithSchema(name, Schema(std::move(columns)));
}

Status EvalContext::CreateWithSchema(const std::string& name,
                                     const Schema& schema) {
  // A failed earlier run may have leaked the temp table; recreate cleanly.
  DKB_RETURN_IF_ERROR(Drop(name));
  std::string ddl = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += schema.column(i).name;
    ddl += schema.column(i).type == DataType::kInteger ? " INT" : " VARCHAR";
  }
  ddl += ")";
  return Temp(ddl);
}

Status EvalContext::EvalRuleInto(const datalog::Rule& rule,
                                 const km::BindingResolver& resolver,
                                 const std::string& target,
                                 const std::string& bind_prefix) {
  DKB_ASSIGN_OR_RETURN(
      km::RuleSqlProgram program,
      km::RuleToSqlProgram(rule, resolver, target, bind_prefix));
  for (const auto& bind : program.bind_tables) {
    DKB_RETURN_IF_ERROR(CreateWithSchema(bind.name, bind.schema));
  }
  Status status = Status::OK();
  for (const std::string& sql : program.statements) {
    status = Rhs(sql);
    if (!status.ok()) break;
  }
  for (const auto& bind : program.bind_tables) {
    Status drop = Drop(bind.name);
    if (status.ok()) status = drop;
  }
  return status;
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

Status EvalContext::EvalExitRules(const km::QueryProgram& program,
                                  const km::ProgramNode& node,
                                  size_t node_index, bool into_new) {
  const std::string np = "#n" + std::to_string(node_index) + "x";
  for (size_t i = 0; i < node.exit_rules.size(); ++i) {
    const km::CompiledRule& cr = node.exit_rules[i];
    const std::string& head = cr.rule.head.predicate;
    const std::string target =
        into_new ? km::NewTableName(head) : program.bindings.at(head).table;
    if (cr.rule.body.empty()) {
      DKB_RETURN_IF_ERROR(Rhs(SeedInsertSql(cr.rule, target)));
    } else if (!cr.select_sql.empty()) {
      DKB_RETURN_IF_ERROR(Rhs(InsertNewSql(target, cr.select_sql)));
    } else {
      DKB_RETURN_IF_ERROR(EvalRuleInto(cr.rule, CanonicalResolver(program),
                                       target, np + std::to_string(i)));
    }
  }
  return Status::OK();
}

Status EvalContext::Clear(const std::string& name) {
  return Temp("DELETE FROM " + name);
}

Status EvalContext::Copy(const std::string& dst, const std::string& src) {
  return Temp("INSERT INTO " + dst + " SELECT * FROM " + src);
}

Status EvalContext::Drop(const std::string& name) {
  return Temp("DROP TABLE IF EXISTS " + name);
}

Result<int64_t> EvalContext::Count(const std::string& name) {
  DKB_ASSIGN_OR_RETURN(ScanSource * table, db_->catalog().GetSource(name));
  return static_cast<int64_t>(table->num_tuples());
}

}  // namespace dkb::lfp
