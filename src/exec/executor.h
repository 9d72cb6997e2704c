#ifndef DKB_EXEC_EXECUTOR_H_
#define DKB_EXEC_EXECUTOR_H_

#include <span>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "sql/ast.h"

namespace dkb::exec {

/// Materialized result of one statement.
struct QueryResult {
  Schema schema;            // empty for DDL/DML
  std::vector<Tuple> rows;  // SELECT output
  int64_t rows_affected = 0;

  /// Aligned ASCII table rendering.
  std::string ToString() const;
};

/// Indented tree rendering of a physical plan (EXPLAIN). With `with_stats`,
/// operators that carry a Profile (EnableProfiling + execution) are
/// annotated with rows, time, and morsel counts (EXPLAIN ANALYZE).
std::string RenderPlan(const PlanNode& root, bool with_stats = false);

/// An INSERT (... SELECT or ... VALUES), or a SELECT, bound and planned
/// once and runnable many times. Every Run re-opens the plan, so it reads
/// the current contents of the relations (and windows) it names; the
/// planner decides access paths from indexes and FROM order only, never
/// from table sizes, so a plan stays the one a fresh planning call would
/// build. `params` holds the values of the statement's `?` placeholders:
/// the plan reads them at every Run (in predicates, index keys and VALUES
/// cells), so one plan serves every binding. Executor::ExecuteInsert runs
/// each INSERT through one of these, and an LFP program instance keeps one
/// per statement of its run.
///
/// `params`, the tables the plan names and, for INSERT ... VALUES, the
/// statement itself (whose rows Run reads) must outlive the plan.
class PlannedQuery {
 public:
  PlannedQuery() = default;  // invalid; assign from Plan

  /// Binds and plans an INSERT. `sources` binds the target and FROM-list
  /// names ahead of the catalog.
  static Result<PlannedQuery> Plan(const sql::InsertStmt& stmt,
                                   const Catalog& catalog, ExecStats* stats,
                                   const std::vector<Value>* params = nullptr,
                                   const NamedSources* sources = nullptr);

  /// Binds and plans a SELECT, whose Run keeps its rows in batches().
  static Result<PlannedQuery> Plan(const sql::SelectStmt& stmt,
                                   const Catalog& catalog, ExecStats* stats,
                                   const std::vector<Value>* params = nullptr,
                                   const NamedSources* sources = nullptr);

  /// Runs the SELECT to completion into batches(). An INSERT ... SELECT
  /// then appends them to its target (fully materialized first, so `INSERT
  /// INTO t SELECT ... FROM t` cannot chase its own inserts) and empties
  /// them; an INSERT ... VALUES inserts its rows with the parameters'
  /// current values. Returns the number of rows selected (and inserted).
  Result<int64_t> Run();

  /// A SELECT's rows from the last Run, valid until the next Run. The
  /// caller may modify them in place.
  std::span<RowBatch> batches() { return {buffered_.data(), filled_}; }

  /// Drops the rows of the last Run, keeping the batches' capacity.
  void ClearBatches();

  /// A SELECT's output columns.
  const Schema& schema() const { return plan_->output_schema(); }

  /// True when the plan reads a sys.* snapshot taken at planning time.
  bool reads_snapshot() const {
    return plan_ != nullptr && plan_->reads_snapshot();
  }

 private:
  ScanSource* target_ = nullptr;  // null for a SELECT
  PlanNodePtr plan_;              // null for an INSERT ... VALUES
  const sql::InsertStmt* values_ = nullptr;  // an INSERT ... VALUES
  const std::vector<Value>* params_ = nullptr;
  ExecStats* stats_ = nullptr;
  std::vector<RowBatch> buffered_;  // kept across runs for their capacity
  size_t filled_ = 0;               // batches of buffered_ the last Run filled
};

/// Executes parsed statements against a catalog; `sources` (may be null)
/// binds FROM-list, INSERT and DELETE names ahead of it.
class Executor {
 public:
  Executor(Catalog* catalog, ExecStats* stats,
           const NamedSources* sources = nullptr)
      : catalog_(catalog), stats_(stats), sources_(sources) {}

  /// `params` supplies values for the statement's `?` placeholders; required
  /// (and checked) when stmt.param_count > 0.
  Result<QueryResult> Execute(const sql::Statement& stmt,
                              const std::vector<Value>* params = nullptr);

 private:
  Result<QueryResult> ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  Result<QueryResult> ExecuteDropTable(const sql::DropTableStmt& stmt);
  Result<QueryResult> ExecuteCreateIndex(const sql::CreateIndexStmt& stmt);
  Result<QueryResult> ExecuteInsert(const sql::InsertStmt& stmt,
                                    const std::vector<Value>* params);
  Result<QueryResult> ExecuteDelete(const sql::DeleteStmt& stmt,
                                    const std::vector<Value>* params);
  Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                    const std::vector<Value>* params);
  Result<QueryResult> ExecuteExplain(const sql::ExplainStmt& stmt);

  Catalog* catalog_;
  ExecStats* stats_;
  const NamedSources* sources_;
};

}  // namespace dkb::exec

#endif  // DKB_EXEC_EXECUTOR_H_
