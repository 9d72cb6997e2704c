#include "exec/executor.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "common/str_util.h"
#include "common/timer.h"
#include "exec/binder.h"
#include "exec/planner.h"

namespace dkb::exec {

std::string QueryResult::ToString() const {
  if (schema.num_columns() == 0) {
    return "(" + std::to_string(rows_affected) + " rows affected)";
  }
  std::vector<size_t> widths(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    widths[c] = schema.column(c).name.size();
  }
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows.size());
  for (const Tuple& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      cells.push_back(row[c].ToString());
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }
  std::string out;
  auto pad = [](const std::string& s, size_t w) {
    std::string p = s;
    p.resize(w, ' ');
    return p;
  };
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out += (c ? " | " : "") + pad(schema.column(c).name, widths[c]);
  }
  out += "\n";
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out += (c ? "-+-" : "") + std::string(widths[c], '-');
  }
  out += "\n";
  for (const auto& cells : rendered) {
    for (size_t c = 0; c < cells.size(); ++c) {
      out += (c ? " | " : "") + pad(cells[c], widths[c]);
    }
    out += "\n";
  }
  out += "(" + std::to_string(rows.size()) + " rows)\n";
  return out;
}

std::string RenderPlan(const PlanNode& root, bool with_stats) {
  std::string out;
  std::function<void(const PlanNode&, int)> walk = [&](const PlanNode& node,
                                                       int depth) {
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += node.Name();
    if (with_stats && node.profile() != nullptr) {
      const PlanNode::Profile& p = *node.profile();
      const int64_t us = NanosToMicros(p.open_ns + p.next_ns);
      out += "  (rows=" + std::to_string(p.rows_out) +
             ", time=" + std::to_string(us) + "us";
      if (p.batches > 0) {
        char ratio[32];
        std::snprintf(ratio, sizeof(ratio), "%.1f",
                      static_cast<double>(p.rows_out) /
                          static_cast<double>(p.batches));
        out += ", batches=" + std::to_string(p.batches) + ", rows/batch=" +
               ratio;
      }
      if (p.morsels > 0) out += ", morsels=" + std::to_string(p.morsels);
      out += ")";
    }
    out += "\n";
    for (const PlanNode* child : node.Children()) walk(*child, depth + 1);
  };
  walk(root, 0);
  return out;
}

Result<QueryResult> Executor::Execute(const sql::Statement& stmt,
                                      const std::vector<Value>* params) {
  StatAdd(stats_->statements);
  const size_t bound = (params == nullptr) ? 0 : params->size();
  if (stmt.param_count > bound) {
    return Status::InvalidArgument(
        "statement has " + std::to_string(stmt.param_count) +
        " parameter(s) but only " + std::to_string(bound) + " bound");
  }
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable:
      return ExecuteCreateTable(static_cast<const sql::CreateTableStmt&>(stmt));
    case sql::StatementKind::kDropTable:
      return ExecuteDropTable(static_cast<const sql::DropTableStmt&>(stmt));
    case sql::StatementKind::kCreateIndex:
      return ExecuteCreateIndex(static_cast<const sql::CreateIndexStmt&>(stmt));
    case sql::StatementKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStmt&>(stmt), params);
    case sql::StatementKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStmt&>(stmt), params);
    case sql::StatementKind::kSelect:
      return ExecuteSelect(
          *static_cast<const sql::SelectStatement&>(stmt).select, params);
    case sql::StatementKind::kExplain:
      return ExecuteExplain(static_cast<const sql::ExplainStmt&>(stmt));
  }
  return Status::Internal("unknown statement kind");
}

namespace {

/// System views answer SELECTs only; everything that would mutate or
/// restructure one is rejected up front with a targeted message (GetTable
/// would otherwise report them as nonexistent).
Status RejectSystemTable(const std::string& name, const char* op) {
  if (IsSystemTableName(name)) {
    return Status::InvalidArgument(std::string(op) + " on system view " +
                                   name + ": sys.* relations are read-only");
  }
  return Status::OK();
}

/// The relation statement `op` writes: the source bound to `name`, else the
/// catalog's stored table.
Result<ScanSource*> ResolveTarget(const std::string& name, const char* op,
                                  const Catalog& catalog,
                                  const NamedSources* sources) {
  DKB_RETURN_IF_ERROR(RejectSystemTable(name, op));
  if (sources != nullptr) {
    auto it = sources->find(AsciiLower(name));
    if (it != sources->end()) return it->second;
  }
  return catalog.GetSource(name);
}

}  // namespace

Result<QueryResult> Executor::ExecuteExplain(const sql::ExplainStmt& stmt) {
  DKB_ASSIGN_OR_RETURN(
      PlanNodePtr plan,
      PlanSelect(*stmt.select, *catalog_, stats_, nullptr, sources_));
  if (stmt.analyze) {
    // EXPLAIN ANALYZE: run the query for real (discarding its rows) with
    // per-operator profiling on, then render the annotated plan.
    plan->EnableProfiling();
    DKB_RETURN_IF_ERROR(plan->Open());
    RowBatch batch;
    while (true) {
      DKB_ASSIGN_OR_RETURN(bool more, plan->NextBatch(&batch));
      if (!more) break;
      StatAdd(stats_->batches);
    }
    plan->Close();
  }
  QueryResult result;
  result.schema = Schema({Column{"plan", DataType::kVarchar}});
  std::string rendered = RenderPlan(*plan, /*with_stats=*/stmt.analyze);
  for (const std::string& line : StrSplit(rendered, '\n')) {
    if (!line.empty()) result.rows.push_back(Tuple{Value(line)});
  }
  return result;
}

Result<QueryResult> Executor::ExecuteCreateTable(
    const sql::CreateTableStmt& stmt) {
  if (stmt.if_not_exists && catalog_->HasTable(stmt.table)) {
    return QueryResult{};
  }
  auto created = catalog_->CreateTable(stmt.table, stmt.schema);
  if (!created.ok()) return created.status();
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteDropTable(const sql::DropTableStmt& stmt) {
  DKB_RETURN_IF_ERROR(RejectSystemTable(stmt.table, "DROP TABLE"));
  if (stmt.if_exists && !catalog_->HasTable(stmt.table)) {
    return QueryResult{};
  }
  DKB_RETURN_IF_ERROR(catalog_->DropTable(stmt.table));
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteCreateIndex(
    const sql::CreateIndexStmt& stmt) {
  DKB_RETURN_IF_ERROR(RejectSystemTable(stmt.table, "CREATE INDEX"));
  DKB_RETURN_IF_ERROR(
      catalog_->CreateIndex(stmt.table, stmt.index, stmt.columns,
                            stmt.ordered));
  return QueryResult{};
}

Result<PlannedQuery> PlannedQuery::Plan(const sql::InsertStmt& stmt,
                                        const Catalog& catalog,
                                        ExecStats* stats,
                                        const std::vector<Value>* params,
                                        const NamedSources* sources) {
  DKB_ASSIGN_OR_RETURN(
      ScanSource * target,
      ResolveTarget(stmt.table, "INSERT", catalog, sources));
  PlannedQuery planned;
  if (stmt.select == nullptr) {
    for (const sql::InsertStmt::ParamCell& cell : stmt.param_cells) {
      if (params == nullptr || cell.param >= params->size()) {
        return Status::InvalidArgument("parameter ?" +
                                       std::to_string(cell.param + 1) +
                                       " is not bound");
      }
    }
    planned.values_ = &stmt;
    planned.params_ = params;
  } else {
    DKB_ASSIGN_OR_RETURN(planned,
                         Plan(*stmt.select, catalog, stats, params, sources));
    if (planned.plan_->output_schema().num_columns() !=
        target->schema().num_columns()) {
      return Status::InvalidArgument(
          "INSERT SELECT arity mismatch for table " + stmt.table);
    }
  }
  planned.target_ = target;
  return planned;
}

Result<PlannedQuery> PlannedQuery::Plan(const sql::SelectStmt& stmt,
                                        const Catalog& catalog,
                                        ExecStats* stats,
                                        const std::vector<Value>* params,
                                        const NamedSources* sources) {
  PlannedQuery planned;
  DKB_ASSIGN_OR_RETURN(planned.plan_,
                       PlanSelect(stmt, catalog, stats, params, sources));
  planned.stats_ = stats;
  return planned;
}

Result<int64_t> PlannedQuery::Run() {
  if (values_ != nullptr) {
    if (values_->param_cells.empty()) {
      for (const std::vector<Value>& row : values_->rows) {
        DKB_RETURN_IF_ERROR(target_->Insert(row).status());
      }
    } else {
      // Substitute the current values into a copy of the VALUES matrix.
      std::vector<std::vector<Value>> rows = values_->rows;
      for (const sql::InsertStmt::ParamCell& cell : values_->param_cells) {
        rows[cell.row][cell.col] = (*params_)[cell.param];
      }
      for (std::vector<Value>& row : rows) {
        DKB_RETURN_IF_ERROR(target_->Insert(std::move(row)).status());
      }
    }
    return static_cast<int64_t>(values_->rows.size());
  }
  int64_t rows = 0;
  filled_ = 0;
  DKB_RETURN_IF_ERROR(plan_->Open());
  while (true) {
    if (filled_ == buffered_.size()) buffered_.emplace_back();
    RowBatch& batch = buffered_[filled_];
    DKB_ASSIGN_OR_RETURN(bool more, plan_->NextBatch(&batch));
    if (!more) break;
    StatAdd(stats_->batches);
    rows += static_cast<int64_t>(batch.size());
    ++filled_;
  }
  plan_->Close();
  if (target_ != nullptr) {
    for (RowBatch& batch : batches()) {
      DKB_RETURN_IF_ERROR(target_->AppendBatch(batch));
    }
    ClearBatches();
  }
  return rows;
}

void PlannedQuery::ClearBatches() {
  for (RowBatch& batch : batches()) batch.Reset(batch.num_columns());
  filled_ = 0;
}

Result<QueryResult> Executor::ExecuteInsert(const sql::InsertStmt& stmt,
                                            const std::vector<Value>* params) {
  DKB_ASSIGN_OR_RETURN(
      PlannedQuery planned,
      PlannedQuery::Plan(stmt, *catalog_, stats_, params, sources_));
  QueryResult result;
  DKB_ASSIGN_OR_RETURN(result.rows_affected, planned.Run());
  return result;
}

Result<QueryResult> Executor::ExecuteDelete(const sql::DeleteStmt& stmt,
                                            const std::vector<Value>* params) {
  DKB_ASSIGN_OR_RETURN(
      ScanSource * table,
      ResolveTarget(stmt.table, "DELETE", *catalog_, sources_));
  QueryResult result;
  if (stmt.where == nullptr) {
    result.rows_affected = static_cast<int64_t>(table->num_tuples());
    table->Clear();
    return result;
  }
  Scope scope;
  DKB_RETURN_IF_ERROR(scope.AddTable(stmt.table, table));
  DKB_ASSIGN_OR_RETURN(
      BoundExprPtr predicate,
      BindExpr(*stmt.where, scope, SlotMode::kGlobal, 0, params));
  // RowIds are shard-local, so collect and delete within each shard.
  int64_t deleted = 0;
  for (size_t sh = 0; sh < table->shard_count(); ++sh) {
    Table& shard = table->shard(sh);
    std::vector<RowId> victims;
    shard.Scan([&](RowId rid, const Tuple& t) {
      if (predicate->EvaluateBool(t)) victims.push_back(rid);
    });
    for (RowId rid : victims) shard.Delete(rid);
    deleted += static_cast<int64_t>(victims.size());
  }
  result.rows_affected = deleted;
  return result;
}

Result<QueryResult> Executor::ExecuteSelect(const sql::SelectStmt& stmt,
                                            const std::vector<Value>* params) {
  DKB_ASSIGN_OR_RETURN(PlanNodePtr plan,
                       PlanSelect(stmt, *catalog_, stats_, params, sources_));
  QueryResult result;
  result.schema = plan->output_schema();
  DKB_RETURN_IF_ERROR(plan->Open());
  RowBatch batch;
  while (true) {
    DKB_ASSIGN_OR_RETURN(bool more, plan->NextBatch(&batch));
    if (!more) break;
    StatAdd(stats_->batches);
    const size_t n = batch.size();
    result.rows.reserve(result.rows.size() + n);
    for (size_t i = 0; i < n; ++i) {
      result.rows.push_back(batch.MaterializeTuple(i));
    }
  }
  plan->Close();
  return result;
}

}  // namespace dkb::exec
