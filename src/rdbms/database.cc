#include "rdbms/database.h"

#include <algorithm>
#include <atomic>

#include "sql/parser.h"

namespace dkb {

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(
    Database* db, std::shared_ptr<const sql::Statement> stmt)
    : db_(db),
      stmt_(std::move(stmt)),
      params_(stmt_->param_count),
      bound_(stmt_->param_count, false) {}

size_t PreparedStatement::param_count() const {
  return stmt_ == nullptr ? 0 : stmt_->param_count;
}

Status PreparedStatement::Bind(size_t index, Value value) {
  if (stmt_ == nullptr) {
    return Status::InvalidArgument("Bind on an invalid PreparedStatement");
  }
  if (index >= params_.size()) {
    return Status::InvalidArgument(
        "parameter index " + std::to_string(index) + " out of range (" +
        std::to_string(params_.size()) + " parameter(s))");
  }
  value.InternIfKnown();
  params_[index] = std::move(value);
  bound_[index] = true;
  return Status::OK();
}

void PreparedStatement::ClearBindings() {
  std::fill(params_.begin(), params_.end(), Value::Null());
  std::fill(bound_.begin(), bound_.end(), false);
}

bool PreparedStatement::read_only() const {
  return stmt_ != nullptr && (stmt_->kind == sql::StatementKind::kSelect ||
                              stmt_->kind == sql::StatementKind::kExplain);
}

Result<QueryResult> PreparedStatement::Execute() {
  if (stmt_ == nullptr) {
    return Status::InvalidArgument("Execute on an invalid PreparedStatement");
  }
  for (size_t i = 0; i < bound_.size(); ++i) {
    if (!bound_[i]) {
      return Status::InvalidArgument("parameter ?" + std::to_string(i + 1) +
                                     " is not bound");
    }
  }
  return db_->ExecuteParsed(*stmt_, params_.empty() ? nullptr : &params_,
                            "<prepared statement>", nullptr);
}

// ---------------------------------------------------------------------------
// PlannedStatement
// ---------------------------------------------------------------------------

Status PlannedStatement::Bind(size_t index, Value value) {
  if (db_ == nullptr) {
    return Status::InvalidArgument("Bind on an invalid PlannedStatement");
  }
  if (index >= params_->size()) {
    return Status::InvalidArgument(
        "parameter index " + std::to_string(index) + " out of range (" +
        std::to_string(params_->size()) + " parameter(s))");
  }
  value.InternIfKnown();
  (*params_)[index] = std::move(value);
  if (!bound_[index]) {
    bound_[index] = true;
    --unbound_;
  }
  return Status::OK();
}

Result<int64_t> PlannedStatement::Run() {
  if (db_ == nullptr) {
    return Status::InvalidArgument("Run on an invalid PlannedStatement");
  }
  if (unbound_ > 0) {
    return Status::InvalidArgument("a parameter of " + text_ +
                                   " is not bound");
  }
  exec::StatAdd(db_->stats_.statements);
  Result<int64_t> rows = query_.Run();
  if (!rows.ok()) {
    return Status(rows.status().code(), rows.status().message() +
                                            " [while executing: " + text_ +
                                            "]");
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> next_database_id{1};
}  // namespace

Database::Database()
    : id_(next_database_id.fetch_add(1, std::memory_order_relaxed)) {}

Result<std::shared_ptr<const sql::Statement>> Database::ParseCached(
    const std::string& sql) {
  {
    MutexLock lock(cache_.mu());
    const StatementCache& cache = cache_.Ref();
    if (cache.enabled) {
      auto it = cache.parsed.find(sql);
      if (it != cache.parsed.end()) {
        exec::StatAdd(stats_.statement_cache_hits);
        return it->second;
      }
    }
  }
  DKB_ASSIGN_OR_RETURN(sql::StatementPtr parsed, sql::ParseStatement(sql));
  std::shared_ptr<const sql::Statement> stmt(std::move(parsed));
  MutexLock lock(cache_.mu());
  StatementCache& cache = cache_.Ref();
  if (cache.enabled) {
    // Unbounded growth guard: rule programs reuse a modest set of texts, but
    // bulk INSERT VALUES strings are one-shot — evict wholesale when large.
    // Shared ownership keeps outstanding PreparedStatements valid.
    if (cache.parsed.size() >= 4096) cache.parsed.clear();
    cache.parsed.emplace(sql, stmt);
  }
  return stmt;
}

void Database::set_statement_cache_enabled(bool enabled) {
  MutexLock lock(cache_.mu());
  StatementCache& cache = cache_.Ref();
  cache.enabled = enabled;
  if (!enabled) cache.parsed.clear();
}

Result<QueryResult> Database::ExecuteParsed(const sql::Statement& stmt,
                                            const std::vector<Value>* params,
                                            const std::string& text,
                                            const exec::NamedSources* sources) {
  exec::Executor executor(&catalog_, &stats_, sources);
  auto result = executor.Execute(stmt, params);
  if (!result.ok()) {
    return Status(result.status().code(),
                  result.status().message() + " [while executing: " + text +
                      "]");
  }
  return result;
}

Result<PreparedStatement> Database::Prepare(const std::string& sql) {
  DKB_ASSIGN_OR_RETURN(std::shared_ptr<const sql::Statement> stmt,
                       ParseCached(sql));
  return PreparedStatement(this, std::move(stmt));
}

Result<PlannedStatement> Database::Plan(const std::string& sql,
                                       const exec::NamedSources* sources) {
  DKB_ASSIGN_OR_RETURN(std::shared_ptr<const sql::Statement> stmt,
                       ParseCached(sql));
  const bool insert = stmt->kind == sql::StatementKind::kInsert;
  if (!insert && stmt->kind != sql::StatementKind::kSelect) {
    return Status::InvalidArgument(
        "only an INSERT or a SELECT can be planned: " + sql);
  }
  auto params = std::make_unique<std::vector<Value>>(stmt->param_count);
  Result<exec::PlannedQuery> query =
      insert ? exec::PlannedQuery::Plan(
                   static_cast<const sql::InsertStmt&>(*stmt), catalog_,
                   &stats_, params.get(), sources)
             : exec::PlannedQuery::Plan(
                   *static_cast<const sql::SelectStatement&>(*stmt).select,
                   catalog_, &stats_, params.get(), sources);
  if (!query.ok()) {
    return Status(query.status().code(), query.status().message() +
                                             " [while planning: " + sql +
                                             "]");
  }
  PlannedStatement planned(this, sql, std::move(stmt), std::move(params));
  planned.query_ = std::move(*query);
  return planned;
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const exec::NamedSources* sources) {
  DKB_ASSIGN_OR_RETURN(std::shared_ptr<const sql::Statement> stmt,
                       ParseCached(sql));
  return ExecuteParsed(*stmt, nullptr, sql, sources);
}

Status Database::ExecuteAll(const std::string& script) {
  DKB_ASSIGN_OR_RETURN(std::vector<sql::StatementPtr> stmts,
                       sql::ParseScript(script));
  exec::Executor executor(&catalog_, &stats_);
  for (const sql::StatementPtr& stmt : stmts) {
    auto result = executor.Execute(*stmt);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

Result<int64_t> Database::QueryCount(const std::string& sql) {
  DKB_ASSIGN_OR_RETURN(Value v, QueryScalar(sql));
  if (!v.is_int()) {
    return Status::TypeError("QueryCount expects an integer result");
  }
  return v.as_int();
}

Result<std::vector<Tuple>> Database::QueryRows(const std::string& sql) {
  DKB_ASSIGN_OR_RETURN(QueryResult result, Execute(sql));
  return std::move(result.rows);
}

Result<Value> Database::QueryScalar(const std::string& sql) {
  DKB_ASSIGN_OR_RETURN(QueryResult result, Execute(sql));
  if (result.rows.empty() || result.rows[0].empty()) {
    return Status::NotFound("scalar query returned no rows: " + sql);
  }
  return result.rows[0][0];
}

}  // namespace dkb
