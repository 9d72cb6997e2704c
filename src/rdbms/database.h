#ifndef DKB_RDBMS_DATABASE_H_
#define DKB_RDBMS_DATABASE_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/sync.h"
#include "exec/executor.h"

namespace dkb {

using exec::ExecStats;
using exec::QueryResult;

class Database;

/// Bindable, repeatedly executable statement handle returned by
/// Database::Prepare — the embedded-SQL preprocessor of the paper's DBMS,
/// done right: parse once, then Bind/Execute each LFP iteration instead of
/// sprintf'ing constants into statement text.
///
/// Parameter indexes are 0-based in textual order of the `?` placeholders.
/// Every parameter must be bound before Execute; bindings persist across
/// executions until rebound or ClearBindings.
///
/// The handle shares ownership of the parsed statement, so it stays valid
/// even if the Database evicts its statement cache. A handle is tied to the
/// Database that prepared it and must not outlive it.
class PreparedStatement {
 public:
  PreparedStatement() = default;  // invalid; assign from Database::Prepare

  bool valid() const { return stmt_ != nullptr; }
  size_t param_count() const;
  /// True for a SELECT or EXPLAIN, which leaves no durable state behind.
  bool read_only() const;

  /// Binds parameter `index` (0-based) to `value`.
  Status Bind(size_t index, Value value);

  /// Forgets all bindings (parameters must be re-bound before Execute).
  void ClearBindings();

  /// Plans and runs the statement with the current bindings. Planning is
  /// fresh per call, so bound values drive access-path selection like
  /// literals and DDL needs no invalidation.
  Result<QueryResult> Execute();

 private:
  friend class Database;
  PreparedStatement(Database* db,
                    std::shared_ptr<const sql::Statement> stmt);

  Database* db_ = nullptr;
  std::shared_ptr<const sql::Statement> stmt_;
  std::vector<Value> params_;
  std::vector<bool> bound_;
};

/// An INSERT (... SELECT or ... VALUES), or a SELECT, parsed, bound and
/// planned once by Database::Plan, then run any number of times: the run
/// time library's embedded SQL as the paper's preprocessor compiled it,
/// once per query form. Each Run re-opens the plan against the current
/// contents of the relations it names and the current values of its `?`
/// parameters, and counts as one executed statement. A handle must not
/// outlive the Database that planned it or the relations it writes; it
/// shares ownership of its parsed statement and of the catalog tables its
/// SELECT reads.
class PlannedStatement {
 public:
  PlannedStatement() = default;  // invalid; assign from Database::Plan

  size_t param_count() const { return bound_.size(); }

  /// Binds parameter `index` (0-based, in textual order of the `?`s) for
  /// every later Run until rebound. A VARCHAR some stored row carries is
  /// adopted as its dictionary id (an id compare against stored values); any
  /// other string stays inline and adds nothing to the dictionary.
  Status Bind(size_t index, Value value);

  /// Runs the statement; returns the number of rows inserted, or for a
  /// SELECT the number of rows it leaves in batches(). InvalidArgument
  /// while a parameter is unbound.
  Result<int64_t> Run();

  /// A SELECT's rows from the last Run, valid until the next Run; the
  /// caller may modify them in place. Empty for an INSERT.
  std::span<RowBatch> batches() { return query_.batches(); }

  /// Drops the rows of the last Run (an idle handle holds no rows).
  void ClearBatches() { query_.ClearBatches(); }

  /// A SELECT's output columns.
  const Schema& schema() const { return query_.schema(); }

  /// True when planning materialized a sys.* view: every Run reads that
  /// snapshot, so the handle is only good for the query that planned it.
  bool reads_snapshot() const { return query_.reads_snapshot(); }

 private:
  friend class Database;
  PlannedStatement(Database* db, std::string text,
                   std::shared_ptr<const sql::Statement> stmt,
                   std::unique_ptr<std::vector<Value>> params)
      : db_(db),
        text_(std::move(text)),
        stmt_(std::move(stmt)),
        params_(std::move(params)),
        bound_(params_->size(), false),
        unbound_(params_->size()) {}

  Database* db_ = nullptr;
  std::string text_;  // for error messages
  std::shared_ptr<const sql::Statement> stmt_;
  /// The parameters' values; the plan reads them through this stable
  /// address, so the handle stays movable.
  std::unique_ptr<std::vector<Value>> params_;
  std::vector<bool> bound_;
  size_t unbound_ = 0;
  exec::PlannedQuery query_;
};

/// The relational DBMS layer of the testbed.
///
/// Stands in for the commercial SQL DBMS of the paper: it stores both the
/// extensional database (fact relations) and the intensional database
/// (rule-storage relations), and executes the SQL programs produced by the
/// Knowledge Manager. `Prepare` returns an explicit PreparedStatement handle;
/// the string-SQL `Execute` entry point is a thin wrapper over it that models
/// the per-statement overhead the paper measures.
///
/// Thread safety: Prepare/Execute may be called from concurrent readers (the
/// parsed-statement cache is mutex-guarded and hands out shared ownership);
/// statements that write table data must be serialized externally — the
/// session layer's reader-writer protocol does exactly that.
class Database {
 public:
  Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses `sql` (one statement, `?` placeholders allowed) into a bindable
  /// handle. Parsed forms are cached by text, so preparing the same text
  /// repeatedly is cheap.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// Parses and executes a single parameterless SQL statement.
  Result<QueryResult> Execute(const std::string& sql,
                              const exec::NamedSources* sources = nullptr);

  /// Parses (through the statement cache), binds and plans one INSERT (...
  /// SELECT or ... VALUES) or SELECT for repeated runs; `?` placeholders
  /// become parameters bound through PlannedStatement::Bind. `sources` binds
  /// names ahead of the catalog (exec::PlannedQuery); every relation the
  /// statement names must exist now. A sys.* view is materialized once,
  /// here, so every run reads that snapshot.
  Result<PlannedStatement> Plan(const std::string& sql,
                                const exec::NamedSources* sources = nullptr);

  /// Process-unique identity of this Database (never reused, unlike its
  /// address): what a planned statement was planned on.
  uint64_t id() const { return id_; }

  /// Disables/enables the parsed-statement cache (ablations).
  void set_statement_cache_enabled(bool enabled);

  /// Executes a ';'-separated script, stopping at the first error.
  Status ExecuteAll(const std::string& script);

  /// Convenience wrappers for the embedded-SQL idioms the run time library
  /// uses constantly.
  Result<int64_t> QueryCount(const std::string& sql);
  Result<std::vector<Tuple>> QueryRows(const std::string& sql);
  /// Single-value convenience: first column of first row; error if empty.
  Result<Value> QueryScalar(const std::string& sql);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  ExecStats& stats() { return stats_; }

 private:
  friend class PreparedStatement;
  friend class PlannedStatement;

  /// Returns the parsed form of `sql`, from cache when possible.
  Result<std::shared_ptr<const sql::Statement>> ParseCached(
      const std::string& sql);

  /// Runs a parsed statement with optional bound parameter values.
  Result<QueryResult> ExecuteParsed(const sql::Statement& stmt,
                                    const std::vector<Value>* params,
                                    const std::string& text,
                                    const exec::NamedSources* sources);

  /// Parsed-statement cache. The enabled flag and the map change together
  /// (disabling clears the map), so both live under one Guarded lock; the
  /// cached statements themselves are immutable and handed out by
  /// shared_ptr, so they need no lock once returned.
  struct StatementCache {
    bool enabled = true;
    std::unordered_map<std::string, std::shared_ptr<const sql::Statement>>
        parsed;
  };

  const uint64_t id_;
  Catalog catalog_;
  ExecStats stats_;
  mutable Guarded<StatementCache> cache_;
};

}  // namespace dkb

#endif  // DKB_RDBMS_DATABASE_H_
