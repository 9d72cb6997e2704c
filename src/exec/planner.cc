#include "exec/planner.h"

#include <algorithm>
#include <set>

#include "common/str_util.h"
#include "exec/binder.h"

namespace dkb::exec {

namespace {

/// Per-conjunct classification used for access-path and join selection.
struct ConjunctInfo {
  const sql::Expr* expr = nullptr;
  std::set<size_t> tables;
  bool used = false;

  // Equi-join between two different tables: lhs/rhs resolved columns.
  bool is_equi = false;
  Scope::ResolvedColumn lhs_col{};
  Scope::ResolvedColumn rhs_col{};

  // Single-table sargable predicates: `col = c`, `col IN (...)` and
  // `col OP c`, where c is a literal or a `?` parameter (`constant`).
  bool is_col_eq_lit = false;
  bool is_col_in_list = false;
  bool is_col_range = false;  // col OP c, OP in {<, <=, >, >=}
  sql::CompareOp range_op = sql::CompareOp::kLt;
  Scope::ResolvedColumn col{};
  const sql::Expr* constant = nullptr;
  std::vector<Value> in_values;
};

BoundExprPtr AndCombine(std::vector<BoundExprPtr> exprs) {
  if (exprs.empty()) return nullptr;
  BoundExprPtr acc = std::move(exprs[0]);
  for (size_t i = 1; i < exprs.size(); ++i) {
    acc = std::make_unique<BoundLogical>(sql::LogicalOp::kAnd, std::move(acc),
                                         std::move(exprs[i]));
  }
  return acc;
}

class Planner {
 public:
  Planner(const Catalog& catalog, ExecStats* stats,
          const std::vector<Value>* params, const NamedSources* sources)
      : catalog_(catalog), stats_(stats), params_(params), sources_(sources) {}

  Result<PlanNodePtr> PlanStmt(const sql::SelectStmt& stmt);

 private:
  Result<PlanNodePtr> PlanCore(const sql::SelectCore& core);
  Result<PlanNodePtr> PlanAggregate(PlanNodePtr child,
                                    const sql::SelectCore& core,
                                    const Scope& scope);
  Result<ConjunctInfo> Classify(const sql::Expr* expr, const Scope& scope);
  /// Access path for one table given its unused single-table conjuncts
  /// (marks consumed conjuncts used). Slots are table-local.
  Result<PlanNodePtr> PlanAccessPath(const Scope& scope, size_t binding,
                                     std::vector<ConjunctInfo*> conjuncts);
  /// A FROM-list name: a named source if one is bound, else the catalog's.
  Result<ResolvedSource> Resolve(const std::string& name) const;
  /// Binds a literal or `?` operand (an index key or range bound).
  Result<BoundExprPtr> BindConstant(const sql::Expr& expr) const {
    return BindExpr(expr, Scope(), SlotMode::kGlobal, 0, params_);
  }

  const Catalog& catalog_;
  ExecStats* stats_;
  const std::vector<Value>* params_;  // bound `?` values; may be null
  const NamedSources* sources_;       // may be null

 public:
  /// Sources resolved while planning (stored tables, and virtual-table
  /// snapshots materialized here); the caller pins them to the plan root so
  /// they outlive planning.
  std::vector<std::shared_ptr<const ScanSource>> pinned_;
  bool reads_snapshot_ = false;  // a pinned source is a sys.* snapshot
};

Result<ResolvedSource> Planner::Resolve(const std::string& name) const {
  if (sources_ != nullptr) {
    auto it = sources_->find(AsciiLower(name));
    if (it != sources_->end()) {
      ResolvedSource resolved;
      resolved.source = it->second;
      resolved.read_epoch = catalog_.read_epoch();
      return resolved;
    }
  }
  return catalog_.ResolveScanSource(name);
}

Result<ConjunctInfo> Planner::Classify(const sql::Expr* expr,
                                       const Scope& scope) {
  ConjunctInfo info;
  info.expr = expr;
  DKB_ASSIGN_OR_RETURN(info.tables, ReferencedBindings(*expr, scope));
  if (expr->kind == sql::ExprKind::kComparison) {
    const auto& cmp = static_cast<const sql::ComparisonExpr&>(*expr);
    if (cmp.op == sql::CompareOp::kEq) {
      const bool lhs_col = cmp.lhs->kind == sql::ExprKind::kColumnRef;
      const bool rhs_col = cmp.rhs->kind == sql::ExprKind::kColumnRef;
      if (lhs_col && rhs_col) {
        const auto& l = static_cast<const sql::ColumnRefExpr&>(*cmp.lhs);
        const auto& r = static_cast<const sql::ColumnRefExpr&>(*cmp.rhs);
        DKB_ASSIGN_OR_RETURN(auto lc, scope.Resolve(l.table, l.column));
        DKB_ASSIGN_OR_RETURN(auto rc, scope.Resolve(r.table, r.column));
        if (lc.binding != rc.binding) {
          info.is_equi = true;
          info.lhs_col = lc;
          info.rhs_col = rc;
        }
      } else if (lhs_col != rhs_col) {
        const auto& c = static_cast<const sql::ColumnRefExpr&>(
            lhs_col ? *cmp.lhs : *cmp.rhs);
        const sql::Expr& operand = lhs_col ? *cmp.rhs : *cmp.lhs;
        if (ConstOperand(operand, params_) != nullptr) {
          DKB_ASSIGN_OR_RETURN(info.col, scope.Resolve(c.table, c.column));
          info.constant = &operand;
          info.is_col_eq_lit = true;
        }
      }
    } else if (cmp.op == sql::CompareOp::kLt ||
               cmp.op == sql::CompareOp::kLe ||
               cmp.op == sql::CompareOp::kGt ||
               cmp.op == sql::CompareOp::kGe) {
      const bool lhs_col = cmp.lhs->kind == sql::ExprKind::kColumnRef;
      const bool rhs_col = cmp.rhs->kind == sql::ExprKind::kColumnRef;
      const sql::Expr& operand = lhs_col ? *cmp.rhs : *cmp.lhs;
      if (lhs_col != rhs_col && ConstOperand(operand, params_) != nullptr) {
        const auto& c = static_cast<const sql::ColumnRefExpr&>(
            lhs_col ? *cmp.lhs : *cmp.rhs);
        DKB_ASSIGN_OR_RETURN(info.col, scope.Resolve(c.table, c.column));
        info.constant = &operand;
        info.is_col_range = true;
        // Normalize to "col OP literal".
        if (lhs_col) {
          info.range_op = cmp.op;
        } else {
          switch (cmp.op) {  // literal OP col  =>  col OP' literal
            case sql::CompareOp::kLt:
              info.range_op = sql::CompareOp::kGt;
              break;
            case sql::CompareOp::kLe:
              info.range_op = sql::CompareOp::kGe;
              break;
            case sql::CompareOp::kGt:
              info.range_op = sql::CompareOp::kLt;
              break;
            default:
              info.range_op = sql::CompareOp::kLe;
              break;
          }
        }
      }
    }
  } else if (expr->kind == sql::ExprKind::kInList) {
    const auto& in = static_cast<const sql::InListExpr&>(*expr);
    if (in.needle->kind == sql::ExprKind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(*in.needle);
      DKB_ASSIGN_OR_RETURN(info.col, scope.Resolve(c.table, c.column));
      info.in_values = in.values;
      info.is_col_in_list = true;
    }
  }
  return info;
}

Result<PlanNodePtr> Planner::PlanAccessPath(
    const Scope& scope, size_t binding,
    std::vector<ConjunctInfo*> conjuncts) {
  const ScanSource* table = scope.bindings()[binding].table;
  const Epoch epoch = scope.bindings()[binding].read_epoch;

  // Look for an equality/IN predicate matching a single-column index; if
  // none, a range predicate over an ordered index.
  ConjunctInfo* sarg = nullptr;
  const Index* index = nullptr;
  for (ConjunctInfo* ci : conjuncts) {
    if (ci->used) continue;
    if (ci->is_col_eq_lit || ci->is_col_in_list) {
      const Index* idx = table->FindIndexOn({ci->col.column});
      if (idx != nullptr) {
        sarg = ci;
        index = idx;
        break;
      }
    }
  }
  ConjunctInfo* range = nullptr;
  const OrderedIndex* ordered = nullptr;
  if (sarg == nullptr) {
    for (ConjunctInfo* ci : conjuncts) {
      if (ci->used || !ci->is_col_range) continue;
      const Index* idx = table->FindIndexOn({ci->col.column});
      if (idx != nullptr && idx->kind() == IndexKind::kOrdered) {
        range = ci;
        ordered = static_cast<const OrderedIndex*>(idx);
        break;
      }
    }
  }

  // The range conjunct stays in the residual filter (bounds are inclusive;
  // the filter restores strictness for < and >).
  std::vector<BoundExprPtr> residual;
  for (ConjunctInfo* ci : conjuncts) {
    if (ci->used || ci == sarg) continue;
    DKB_ASSIGN_OR_RETURN(
        BoundExprPtr bound,
        BindExpr(*ci->expr, scope, SlotMode::kTableLocal, binding, params_));
    residual.push_back(std::move(bound));
    ci->used = true;
  }

  if (sarg != nullptr) {
    sarg->used = true;
    std::vector<BoundExprPtr> keys;
    if (sarg->is_col_eq_lit) {
      DKB_ASSIGN_OR_RETURN(BoundExprPtr key, BindConstant(*sarg->constant));
      keys.push_back(std::move(key));
    } else {
      keys.reserve(sarg->in_values.size());
      for (const Value& v : sarg->in_values) {
        keys.push_back(std::make_unique<BoundLiteral>(v));
      }
    }
    return PlanNodePtr(std::make_unique<IndexScanNode>(
        table, index, std::move(keys), AndCombine(std::move(residual)),
        stats_, epoch));
  }
  if (range != nullptr) {
    BoundExprPtr lo;
    BoundExprPtr hi;
    DKB_ASSIGN_OR_RETURN(BoundExprPtr bound, BindConstant(*range->constant));
    if (range->range_op == sql::CompareOp::kGt ||
        range->range_op == sql::CompareOp::kGe) {
      lo = std::move(bound);
    } else {
      hi = std::move(bound);
    }
    return PlanNodePtr(std::make_unique<IndexRangeScanNode>(
        table, ordered, std::move(lo), std::move(hi),
        AndCombine(std::move(residual)), stats_, epoch));
  }
  return PlanNodePtr(std::make_unique<SeqScanNode>(
      table, AndCombine(std::move(residual)), stats_, epoch));
}

Result<PlanNodePtr> Planner::PlanCore(const sql::SelectCore& core) {
  if (core.sub_select != nullptr) {
    return PlanStmt(*core.sub_select);
  }
  if (core.from.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }

  Scope scope;
  for (const sql::TableRef& ref : core.from) {
    DKB_ASSIGN_OR_RETURN(ResolvedSource resolved, Resolve(ref.table));
    if (resolved.owned != nullptr) pinned_.push_back(resolved.owned);
    reads_snapshot_ = reads_snapshot_ || resolved.snapshot;
    DKB_RETURN_IF_ERROR(scope.AddTable(ref.EffectiveName(), resolved.source,
                                       resolved.read_epoch));
  }

  std::vector<const sql::Expr*> raw_conjuncts;
  SplitConjuncts(core.where.get(), &raw_conjuncts);
  std::vector<ConjunctInfo> conjuncts;
  conjuncts.reserve(raw_conjuncts.size());
  for (const sql::Expr* e : raw_conjuncts) {
    DKB_ASSIGN_OR_RETURN(ConjunctInfo info, Classify(e, scope));
    conjuncts.push_back(std::move(info));
  }

  auto single_table_conjuncts = [&](size_t bi) {
    std::vector<ConjunctInfo*> out;
    for (ConjunctInfo& ci : conjuncts) {
      if (!ci.used && ci.tables.size() == 1 && *ci.tables.begin() == bi) {
        out.push_back(&ci);
      }
    }
    return out;
  };

  // Table 0: base access path.
  DKB_ASSIGN_OR_RETURN(PlanNodePtr plan,
                       PlanAccessPath(scope, 0, single_table_conjuncts(0)));

  // Join remaining tables left-to-right.
  for (size_t bi = 1; bi < scope.bindings().size(); ++bi) {
    const ScanSource* inner = scope.bindings()[bi].table;

    // Conjuncts that become fully bound once table bi joins.
    std::vector<ConjunctInfo*> available;
    for (ConjunctInfo& ci : conjuncts) {
      if (ci.used || ci.tables.count(bi) == 0) continue;
      bool all_bound = true;
      for (size_t t : ci.tables) {
        if (t > bi) {
          all_bound = false;
          break;
        }
      }
      if (all_bound) available.push_back(&ci);
    }

    // Equi-join conjuncts between bi and earlier tables.
    struct EquiPair {
      ConjunctInfo* ci;
      size_t outer_slot;  // global slot (valid in the joined prefix)
      size_t inner_col;   // column index within the inner table
    };
    std::vector<EquiPair> equis;
    for (ConjunctInfo* ci : available) {
      if (!ci->is_equi) continue;
      const auto& l = ci->lhs_col;
      const auto& r = ci->rhs_col;
      if (l.binding == bi && r.binding < bi) {
        equis.push_back(EquiPair{ci, r.global_slot, l.column});
      } else if (r.binding == bi && l.binding < bi) {
        equis.push_back(EquiPair{ci, l.global_slot, r.column});
      }
    }

    auto bind_global_residual =
        [&](const std::vector<ConjunctInfo*>& cis) -> Result<BoundExprPtr> {
      std::vector<BoundExprPtr> bound;
      for (ConjunctInfo* ci : cis) {
        if (ci->used) continue;
        DKB_ASSIGN_OR_RETURN(BoundExprPtr b,
                             BindExpr(*ci->expr, scope, SlotMode::kGlobal, 0, params_));
        bound.push_back(std::move(b));
        ci->used = true;
      }
      return AndCombine(std::move(bound));
    };

    if (!equis.empty()) {
      // Try an index on exactly the equi columns of the inner table.
      std::vector<size_t> inner_cols;
      for (const EquiPair& ep : equis) inner_cols.push_back(ep.inner_col);
      const Index* index = inner->FindIndexOn(inner_cols);
      if (index == nullptr && equis.size() > 1) {
        // Fall back to a single-column index on any one equi column.
        for (const EquiPair& ep : equis) {
          index = inner->FindIndexOn({ep.inner_col});
          if (index != nullptr) {
            inner_cols = {ep.inner_col};
            break;
          }
        }
      }
      if (index != nullptr) {
        // Align outer key slots with the index's key column order; the
        // remaining equi conjuncts become residual predicates.
        std::vector<size_t> outer_slots;
        std::vector<ConjunctInfo*> key_cis;
        bool align_ok = true;
        for (size_t key_col : index->key_columns()) {
          bool found = false;
          for (const EquiPair& ep : equis) {
            if (ep.inner_col == key_col && !ep.ci->used) {
              outer_slots.push_back(ep.outer_slot);
              key_cis.push_back(ep.ci);
              found = true;
              break;
            }
          }
          if (!found) {
            align_ok = false;
            break;
          }
        }
        if (align_ok) {
          for (ConjunctInfo* ci : key_cis) ci->used = true;
          DKB_ASSIGN_OR_RETURN(BoundExprPtr residual,
                               bind_global_residual(available));
          plan = std::make_unique<IndexNLJoinNode>(
              std::move(plan), inner, index, std::move(outer_slots),
              std::move(residual), stats_, scope.bindings()[bi].read_epoch);
          continue;
        }
      }
      // Hash join: build side scans the inner table with its own filters.
      std::vector<size_t> left_keys;
      std::vector<size_t> right_keys;
      for (const EquiPair& ep : equis) {
        left_keys.push_back(ep.outer_slot);
        right_keys.push_back(ep.inner_col);
        ep.ci->used = true;
      }
      DKB_ASSIGN_OR_RETURN(
          PlanNodePtr build,
          PlanAccessPath(scope, bi, single_table_conjuncts(bi)));
      DKB_ASSIGN_OR_RETURN(BoundExprPtr residual,
                           bind_global_residual(available));
      plan = std::make_unique<HashJoinNode>(
          std::move(plan), std::move(build), std::move(left_keys),
          std::move(right_keys), std::move(residual), stats_);
      continue;
    }

    // No equi predicate: nested-loop join with whatever predicates bind now.
    DKB_ASSIGN_OR_RETURN(PlanNodePtr scan,
                         PlanAccessPath(scope, bi, single_table_conjuncts(bi)));
    DKB_ASSIGN_OR_RETURN(BoundExprPtr predicate,
                         bind_global_residual(available));
    plan = std::make_unique<NestedLoopJoinNode>(
        std::move(plan), std::move(scan), std::move(predicate), stats_);
  }

  // Any conjunct not yet applied (e.g. constant predicates) filters on top.
  {
    std::vector<BoundExprPtr> leftover;
    for (ConjunctInfo& ci : conjuncts) {
      if (ci.used) continue;
      DKB_ASSIGN_OR_RETURN(BoundExprPtr b,
                           BindExpr(*ci.expr, scope, SlotMode::kGlobal, 0, params_));
      leftover.push_back(std::move(b));
      ci.used = true;
    }
    if (!leftover.empty()) {
      plan = std::make_unique<FilterNode>(std::move(plan),
                                          AndCombine(std::move(leftover)));
    }
  }

  // Aggregation path: any aggregate select item or a GROUP BY clause.
  bool has_agg = !core.group_by.empty();
  for (const sql::SelectItem& item : core.items) {
    if (item.agg != sql::AggFn::kNone) has_agg = true;
  }
  if (has_agg) {
    DKB_ASSIGN_OR_RETURN(plan, PlanAggregate(std::move(plan), core, scope));
    if (core.having != nullptr) {
      DKB_ASSIGN_OR_RETURN(
          BoundExprPtr predicate,
          BindAgainstSchema(*core.having, plan->output_schema(), params_));
      plan = std::make_unique<FilterNode>(std::move(plan),
                                          std::move(predicate));
    }
    if (core.distinct) {
      plan = std::make_unique<DistinctNode>(std::move(plan));
    }
    return plan;
  }
  if (core.having != nullptr) {
    return Status::InvalidArgument("HAVING requires aggregation");
  }

  std::vector<BoundExprPtr> proj_exprs;
  std::vector<Column> out_columns;
  size_t anon = 0;
  for (const sql::SelectItem& item : core.items) {
    if (item.star) {
      for (const TableBinding& b : scope.bindings()) {
        for (size_t c = 0; c < b.table->schema().num_columns(); ++c) {
          proj_exprs.push_back(std::make_unique<BoundColumn>(b.offset + c));
          out_columns.push_back(b.table->schema().column(c));
        }
      }
      continue;
    }
    DKB_ASSIGN_OR_RETURN(BoundExprPtr bound,
                         BindExpr(*item.expr, scope, SlotMode::kGlobal, 0, params_));
    Column col;
    if (!item.alias.empty()) {
      col.name = item.alias;
    } else if (item.expr->kind == sql::ExprKind::kColumnRef) {
      col.name = static_cast<const sql::ColumnRefExpr&>(*item.expr).column;
    } else {
      col.name = "col" + std::to_string(anon++);
    }
    if (item.expr->kind == sql::ExprKind::kColumnRef) {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
      DKB_ASSIGN_OR_RETURN(auto rc, scope.Resolve(ref.table, ref.column));
      col.type = rc.type;
    } else if (const Value* cv = ConstOperand(*item.expr, params_)) {
      col.type = cv->is_string() ? DataType::kVarchar : DataType::kInteger;
    } else {
      col.type = DataType::kInteger;  // boolean-ish expressions
    }
    proj_exprs.push_back(std::move(bound));
    out_columns.push_back(std::move(col));
  }
  plan = std::make_unique<ProjectNode>(std::move(plan), std::move(proj_exprs),
                                       Schema(std::move(out_columns)));
  if (core.distinct) {
    plan = std::make_unique<DistinctNode>(std::move(plan));
  }
  return plan;
}

Result<PlanNodePtr> Planner::PlanAggregate(PlanNodePtr child,
                                           const sql::SelectCore& core,
                                           const Scope& scope) {
  // Group keys must be column references.
  std::vector<BoundExprPtr> group_keys;
  std::vector<size_t> group_slots;
  std::vector<DataType> group_types;
  for (const sql::ExprPtr& expr : core.group_by) {
    if (expr->kind != sql::ExprKind::kColumnRef) {
      return Status::Unimplemented(
          "GROUP BY supports column references only");
    }
    const auto& ref = static_cast<const sql::ColumnRefExpr&>(*expr);
    DKB_ASSIGN_OR_RETURN(auto rc, scope.Resolve(ref.table, ref.column));
    group_keys.push_back(std::make_unique<BoundColumn>(rc.global_slot));
    group_slots.push_back(rc.global_slot);
    group_types.push_back(rc.type);
  }

  std::vector<AggregateNode::AggSpec> specs;
  std::vector<AggregateNode::OutputRef> outputs;
  std::vector<Column> out_columns;
  for (const sql::SelectItem& item : core.items) {
    if (item.star) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with aggregation");
    }
    Column col;
    if (item.agg == sql::AggFn::kNone) {
      if (item.expr->kind != sql::ExprKind::kColumnRef) {
        return Status::InvalidArgument(
            "non-aggregate select items must be GROUP BY columns");
      }
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
      DKB_ASSIGN_OR_RETURN(auto rc, scope.Resolve(ref.table, ref.column));
      size_t key_index = group_slots.size();
      for (size_t k = 0; k < group_slots.size(); ++k) {
        if (group_slots[k] == rc.global_slot) key_index = k;
      }
      if (key_index == group_slots.size()) {
        return Status::InvalidArgument("select item " + ref.ToString() +
                                       " is not in the GROUP BY list");
      }
      outputs.push_back(AggregateNode::OutputRef{false, key_index});
      col.name = item.alias.empty() ? rc.name : item.alias;
      col.type = rc.type;
      out_columns.push_back(std::move(col));
      continue;
    }
    AggregateNode::AggSpec spec;
    spec.fn = item.agg;
    DataType arg_type = DataType::kInteger;
    std::string arg_name;
    if (item.agg != sql::AggFn::kCountStar) {
      DKB_ASSIGN_OR_RETURN(spec.arg,
                           BindExpr(*item.expr, scope, SlotMode::kGlobal, 0, params_));
      if (item.expr->kind == sql::ExprKind::kColumnRef) {
        const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
        DKB_ASSIGN_OR_RETURN(auto rc, scope.Resolve(ref.table, ref.column));
        arg_type = rc.type;
        arg_name = rc.name;
      }
      if (item.agg == sql::AggFn::kSum && arg_type != DataType::kInteger) {
        return Status::TypeError("SUM requires an integer column");
      }
    }
    outputs.push_back(AggregateNode::OutputRef{true, specs.size()});
    specs.push_back(std::move(spec));
    if (!item.alias.empty()) {
      col.name = item.alias;
    } else if (item.agg == sql::AggFn::kCountStar) {
      col.name = "count";
    } else {
      col.name = AsciiLower(sql::AggFnName(item.agg)) +
                 (arg_name.empty() ? "" : "_" + arg_name);
    }
    switch (item.agg) {
      case sql::AggFn::kCountStar:
      case sql::AggFn::kCount:
      case sql::AggFn::kSum:
        col.type = DataType::kInteger;
        break;
      default:
        col.type = arg_type;
    }
    out_columns.push_back(std::move(col));
  }

  return PlanNodePtr(std::make_unique<AggregateNode>(
      std::move(child), std::move(group_keys), std::move(specs),
      std::move(outputs), Schema(std::move(out_columns))));
}

Result<PlanNodePtr> Planner::PlanStmt(const sql::SelectStmt& stmt) {
  DKB_ASSIGN_OR_RETURN(PlanNodePtr plan, PlanCore(*stmt.cores[0]));
  for (size_t i = 1; i < stmt.cores.size(); ++i) {
    DKB_ASSIGN_OR_RETURN(PlanNodePtr rhs, PlanCore(*stmt.cores[i]));
    const Schema& ls = plan->output_schema();
    const Schema& rs = rhs->output_schema();
    if (ls.num_columns() != rs.num_columns()) {
      return Status::InvalidArgument(
          "set operation arity mismatch: " + std::to_string(ls.num_columns()) +
          " vs " + std::to_string(rs.num_columns()));
    }
    SetOpKind kind;
    switch (stmt.ops[i - 1]) {
      case sql::SetOp::kUnion:
        kind = SetOpKind::kUnion;
        break;
      case sql::SetOp::kUnionAll:
        kind = SetOpKind::kUnionAll;
        break;
      case sql::SetOp::kExcept:
        kind = SetOpKind::kExcept;
        break;
      case sql::SetOp::kIntersect:
        kind = SetOpKind::kIntersect;
        break;
      default:
        return Status::Internal("bad set op");
    }
    plan = std::make_unique<SetOpNode>(std::move(plan), std::move(rhs), kind);
  }

  if (!stmt.order_by.empty()) {
    const Schema& schema = plan->output_schema();
    std::vector<SortNode::SortKey> keys;
    for (const sql::OrderByItem& item : stmt.order_by) {
      SortNode::SortKey key;
      key.ascending = item.ascending;
      bool is_ordinal = !item.column.empty() &&
                        std::all_of(item.column.begin(), item.column.end(),
                                    [](char c) { return std::isdigit(c); });
      if (is_ordinal) {
        size_t ord = std::stoul(item.column);
        if (ord < 1 || ord > schema.num_columns()) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        key.slot = ord - 1;
      } else {
        auto idx = schema.FindColumn(item.column);
        if (!idx.has_value()) {
          return Status::NotFound("ORDER BY column '" + item.column +
                                  "' not in output");
        }
        key.slot = *idx;
      }
      keys.push_back(key);
    }
    plan = std::make_unique<SortNode>(std::move(plan), std::move(keys));
  }
  if (stmt.limit.has_value()) {
    plan = std::make_unique<LimitNode>(std::move(plan), *stmt.limit);
  }
  return plan;
}

}  // namespace

Result<PlanNodePtr> PlanSelect(const sql::SelectStmt& stmt,
                               const Catalog& catalog, ExecStats* stats,
                               const std::vector<Value>* params,
                               const NamedSources* sources) {
  Planner planner(catalog, stats, params, sources);
  DKB_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.PlanStmt(stmt));
  for (std::shared_ptr<const ScanSource>& source : planner.pinned_) {
    plan->PinSource(std::move(source));
  }
  if (planner.reads_snapshot_) plan->MarkReadsSnapshot();
  return plan;
}

}  // namespace dkb::exec
