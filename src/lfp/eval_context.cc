#include "lfp/eval_context.h"

#include "common/str_util.h"
#include "common/timer.h"
#include "km/naming.h"
#include "storage/sharded_table.h"

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
  return Status::OK();
}

ScanSource* RunRelations::Find(const std::string& name) const {
  auto it = names_.find(AsciiLower(name));
  return it == names_.end() ? nullptr : it->second;
}

Status EvalContext::Temp(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_temp_ns);
  return db_->Execute(sql, &relations_->names()).status();
}

Status EvalContext::Rhs(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_rhs_ns);
  return db_->Execute(sql, &relations_->names()).status();
}

Result<PlannedStatement> EvalContext::Plan(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_rhs_ns);
  return db_->Plan(sql, &relations_->names());
}

Status EvalContext::Rhs(PlannedStatement* statement) {
  ScopedAccumulator acc(&stats_->t_rhs_ns);
  return statement->Run().status();
}

Status EvalContext::Term(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_term_ns);
  return db_->Execute(sql, &relations_->names()).status();
}

Result<int64_t> EvalContext::TermCount(const std::string& count_sql) {
  ScopedAccumulator acc(&stats_->t_term_ns);
  DKB_ASSIGN_OR_RETURN(QueryResult count,
                       db_->Execute(count_sql, &relations_->names()));
  return count.rows[0][0].as_int();  // COUNT(*) yields exactly one row
}

Result<ScanSource*> EvalContext::Temporary(const std::string& name,
                                           const Schema& schema) {
  ScopedAccumulator acc(&stats_->t_temp_ns);
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

}  // namespace dkb::lfp
