#include "exec/binder.h"

#include "common/str_util.h"

namespace dkb::exec {

Status Scope::AddTable(std::string name, const ScanSource* table,
                       Epoch read_epoch) {
  for (const auto& b : bindings_) {
    if (EqualsIgnoreCase(b.name, name)) {
      return Status::InvalidArgument("duplicate table name/alias '" + name +
                                     "' in FROM list");
    }
  }
  bindings_.push_back(
      TableBinding{std::move(name), table, total_columns_, read_epoch});
  total_columns_ += table->schema().num_columns();
  return Status::OK();
}

Result<Scope::ResolvedColumn> Scope::Resolve(const std::string& qualifier,
                                             const std::string& column) const {
  // A dotted table name ("sys.query_log") may be qualified by its base name
  // ("query_log.ts_us"): expression grammar only supports one-part
  // qualifiers, so the schema prefix is dropped for matching.
  auto matches = [](const std::string& binding, const std::string& q) {
    if (EqualsIgnoreCase(binding, q)) return true;
    size_t dot = binding.rfind('.');
    return dot != std::string::npos &&
           EqualsIgnoreCase(binding.substr(dot + 1), q);
  };
  if (!qualifier.empty()) {
    for (size_t bi = 0; bi < bindings_.size(); ++bi) {
      const TableBinding& b = bindings_[bi];
      if (!matches(b.name, qualifier)) continue;
      auto ci = b.table->schema().FindColumn(column);
      if (!ci.has_value()) {
        return Status::NotFound("column " + column + " not found in " +
                                b.name);
      }
      return ResolvedColumn{bi, *ci, b.offset + *ci,
                            b.table->schema().column(*ci).type,
                            b.table->schema().column(*ci).name};
    }
    return Status::NotFound("unknown table or alias '" + qualifier + "'");
  }
  std::optional<ResolvedColumn> found;
  for (size_t bi = 0; bi < bindings_.size(); ++bi) {
    const TableBinding& b = bindings_[bi];
    auto ci = b.table->schema().FindColumn(column);
    if (!ci.has_value()) continue;
    if (found.has_value()) {
      return Status::InvalidArgument("ambiguous column name '" + column + "'");
    }
    found = ResolvedColumn{bi, *ci, b.offset + *ci,
                           b.table->schema().column(*ci).type,
                           b.table->schema().column(*ci).name};
  }
  if (!found.has_value()) {
    return Status::NotFound("column '" + column + "' not found");
  }
  return *found;
}

namespace {

Result<BoundExprPtr> BindImpl(const sql::Expr& expr, const Scope& scope,
                              SlotMode mode, size_t local_binding,
                              const std::vector<Value>* params) {
  switch (expr.kind) {
    case sql::ExprKind::kColumnRef: {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(Scope::ResolvedColumn rc,
                           scope.Resolve(ref.table, ref.column));
      if (mode == SlotMode::kTableLocal) {
        if (rc.binding != local_binding) {
          return Status::Internal("table-local binding crossed tables for " +
                                  ref.ToString());
        }
        return BoundExprPtr(std::make_unique<BoundColumn>(rc.column));
      }
      return BoundExprPtr(std::make_unique<BoundColumn>(rc.global_slot));
    }
    case sql::ExprKind::kLiteral: {
      const auto& lit = static_cast<const sql::LiteralExpr&>(expr);
      return BoundExprPtr(std::make_unique<BoundLiteral>(lit.value));
    }
    case sql::ExprKind::kParam: {
      const auto& p = static_cast<const sql::ParamExpr&>(expr);
      if (params == nullptr || p.index >= params->size()) {
        return Status::InvalidArgument(
            "parameter ?" + std::to_string(p.index + 1) + " is not bound");
      }
      return BoundExprPtr(std::make_unique<BoundParam>(params, p.index));
    }
    case sql::ExprKind::kComparison: {
      const auto& cmp = static_cast<const sql::ComparisonExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(BoundExprPtr lhs,
                           BindImpl(*cmp.lhs, scope, mode, local_binding, params));
      DKB_ASSIGN_OR_RETURN(BoundExprPtr rhs,
                           BindImpl(*cmp.rhs, scope, mode, local_binding, params));
      return BoundExprPtr(std::make_unique<BoundComparison>(
          cmp.op, std::move(lhs), std::move(rhs)));
    }
    case sql::ExprKind::kLogical: {
      const auto& log = static_cast<const sql::LogicalExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(BoundExprPtr lhs,
                           BindImpl(*log.lhs, scope, mode, local_binding, params));
      DKB_ASSIGN_OR_RETURN(BoundExprPtr rhs,
                           BindImpl(*log.rhs, scope, mode, local_binding, params));
      return BoundExprPtr(std::make_unique<BoundLogical>(
          log.op, std::move(lhs), std::move(rhs)));
    }
    case sql::ExprKind::kNot: {
      const auto& n = static_cast<const sql::NotExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(BoundExprPtr child,
                           BindImpl(*n.child, scope, mode, local_binding, params));
      return BoundExprPtr(std::make_unique<BoundNot>(std::move(child)));
    }
    case sql::ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(BoundExprPtr needle,
                           BindImpl(*in.needle, scope, mode, local_binding, params));
      return BoundExprPtr(
          std::make_unique<BoundInList>(std::move(needle), in.values));
    }
  }
  return Status::Internal("unknown expression kind");
}

Status CollectBindings(const sql::Expr& expr, const Scope& scope,
                       std::set<size_t>* out) {
  switch (expr.kind) {
    case sql::ExprKind::kColumnRef: {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(Scope::ResolvedColumn rc,
                           scope.Resolve(ref.table, ref.column));
      out->insert(rc.binding);
      return Status::OK();
    }
    case sql::ExprKind::kLiteral:
    case sql::ExprKind::kParam:
      return Status::OK();
    case sql::ExprKind::kComparison: {
      const auto& cmp = static_cast<const sql::ComparisonExpr&>(expr);
      DKB_RETURN_IF_ERROR(CollectBindings(*cmp.lhs, scope, out));
      return CollectBindings(*cmp.rhs, scope, out);
    }
    case sql::ExprKind::kLogical: {
      const auto& log = static_cast<const sql::LogicalExpr&>(expr);
      DKB_RETURN_IF_ERROR(CollectBindings(*log.lhs, scope, out));
      return CollectBindings(*log.rhs, scope, out);
    }
    case sql::ExprKind::kNot: {
      const auto& n = static_cast<const sql::NotExpr&>(expr);
      return CollectBindings(*n.child, scope, out);
    }
    case sql::ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      return CollectBindings(*in.needle, scope, out);
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace

Result<BoundExprPtr> BindExpr(const sql::Expr& expr, const Scope& scope,
                              SlotMode mode, size_t local_binding,
                              const std::vector<Value>* params) {
  return BindImpl(expr, scope, mode, local_binding, params);
}

const Value* ConstOperand(const sql::Expr& expr,
                          const std::vector<Value>* params) {
  if (expr.kind == sql::ExprKind::kLiteral) {
    return &static_cast<const sql::LiteralExpr&>(expr).value;
  }
  if (expr.kind == sql::ExprKind::kParam && params != nullptr) {
    const auto& p = static_cast<const sql::ParamExpr&>(expr);
    if (p.index < params->size()) return &(*params)[p.index];
  }
  return nullptr;
}

Result<std::set<size_t>> ReferencedBindings(const sql::Expr& expr,
                                            const Scope& scope) {
  std::set<size_t> out;
  DKB_RETURN_IF_ERROR(CollectBindings(expr, scope, &out));
  return out;
}

Result<BoundExprPtr> BindAgainstSchema(const sql::Expr& expr,
                                       const Schema& schema,
                                       const std::vector<Value>* params) {
  switch (expr.kind) {
    case sql::ExprKind::kColumnRef: {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
      if (!ref.table.empty()) {
        return Status::InvalidArgument(
            "qualified column '" + ref.ToString() +
            "' cannot be used here; refer to output columns by name");
      }
      auto idx = schema.FindColumn(ref.column);
      if (!idx.has_value()) {
        return Status::NotFound("column '" + ref.column +
                                "' is not an output column");
      }
      return BoundExprPtr(std::make_unique<BoundColumn>(*idx));
    }
    case sql::ExprKind::kLiteral: {
      const auto& lit = static_cast<const sql::LiteralExpr&>(expr);
      return BoundExprPtr(std::make_unique<BoundLiteral>(lit.value));
    }
    case sql::ExprKind::kParam: {
      if (ConstOperand(expr, params) == nullptr) {
        return Status::InvalidArgument("parameter is not bound");
      }
      return BoundExprPtr(std::make_unique<BoundParam>(
          params, static_cast<const sql::ParamExpr&>(expr).index));
    }
    case sql::ExprKind::kComparison: {
      const auto& cmp = static_cast<const sql::ComparisonExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(BoundExprPtr lhs,
                           BindAgainstSchema(*cmp.lhs, schema, params));
      DKB_ASSIGN_OR_RETURN(BoundExprPtr rhs,
                           BindAgainstSchema(*cmp.rhs, schema, params));
      return BoundExprPtr(std::make_unique<BoundComparison>(
          cmp.op, std::move(lhs), std::move(rhs)));
    }
    case sql::ExprKind::kLogical: {
      const auto& log = static_cast<const sql::LogicalExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(BoundExprPtr lhs,
                           BindAgainstSchema(*log.lhs, schema, params));
      DKB_ASSIGN_OR_RETURN(BoundExprPtr rhs,
                           BindAgainstSchema(*log.rhs, schema, params));
      return BoundExprPtr(std::make_unique<BoundLogical>(
          log.op, std::move(lhs), std::move(rhs)));
    }
    case sql::ExprKind::kNot: {
      const auto& n = static_cast<const sql::NotExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(BoundExprPtr child,
                           BindAgainstSchema(*n.child, schema, params));
      return BoundExprPtr(std::make_unique<BoundNot>(std::move(child)));
    }
    case sql::ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(expr);
      DKB_ASSIGN_OR_RETURN(BoundExprPtr needle,
                           BindAgainstSchema(*in.needle, schema, params));
      return BoundExprPtr(
          std::make_unique<BoundInList>(std::move(needle), in.values));
    }
  }
  return Status::Internal("unknown expression kind");
}

void SplitConjuncts(const sql::Expr* expr,
                    std::vector<const sql::Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == sql::ExprKind::kLogical) {
    const auto* log = static_cast<const sql::LogicalExpr*>(expr);
    if (log->op == sql::LogicalOp::kAnd) {
      SplitConjuncts(log->lhs.get(), out);
      SplitConjuncts(log->rhs.get(), out);
      return;
    }
  }
  out->push_back(expr);
}

}  // namespace dkb::exec
