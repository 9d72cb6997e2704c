#ifndef DKB_EXEC_EXPR_H_
#define DKB_EXEC_EXPR_H_

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/value.h"
#include "sql/ast.h"
#include "storage/tuple.h"

namespace dkb::exec {

/// Bound (name-resolved) expression evaluated against a flat joined row.
///
/// Predicate semantics are two-valued: any comparison involving NULL is
/// false. The Datalog layer never produces NULLs, so this simplification
/// does not affect D/KB query results.
///
/// Expressions evaluate batch-at-a-time: FilterSelection narrows a set of
/// candidate rows and EvaluateColumn materializes one output column, each
/// costing one virtual call per expression node per batch. The per-row
/// Evaluate/EvaluateBool entry points remain for point lookups (index key
/// probes, REPL display) and as the fallback for node types without a
/// vectorized kernel.
class BoundExpr {
 public:
  virtual ~BoundExpr() = default;

  /// Evaluates to a value (column ref / literal).
  virtual Value Evaluate(const Tuple& row) const = 0;

  /// Evaluates as a predicate.
  virtual bool EvaluateBool(const Tuple& row) const {
    Value v = Evaluate(row);
    return v.is_int() && v.as_int() != 0;
  }

  /// Vectorized predicate. `rows` holds candidate *logical* row indexes of
  /// `batch` in ascending order; on return it holds the subset for which
  /// the predicate is true, order preserved. The base implementation
  /// materializes a scratch tuple per row (per-row virtual; subclasses
  /// override with column kernels).
  virtual void FilterSelection(const RowBatch& batch,
                               std::vector<uint32_t>* rows) const;

  /// Vectorized evaluation: appends one value per entry of `rows` (logical
  /// indexes into `batch`) to `*out`, which is cleared first.
  virtual void EvaluateColumn(const RowBatch& batch,
                              const std::vector<uint32_t>& rows,
                              std::vector<Value>* out) const;

  /// Largest row slot referenced (for prefix-safety checks); -1 if none.
  virtual int MaxSlot() const { return -1; }
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

class BoundColumn : public BoundExpr {
 public:
  explicit BoundColumn(size_t slot) : slot_(slot) {}
  Value Evaluate(const Tuple& row) const override { return row[slot_]; }
  void EvaluateColumn(const RowBatch& batch,
                      const std::vector<uint32_t>& rows,
                      std::vector<Value>* out) const override {
    out->clear();
    out->reserve(rows.size());
    for (uint32_t i : rows) out->push_back(batch.At(i, slot_));
  }
  int MaxSlot() const override { return static_cast<int>(slot_); }
  size_t slot() const { return slot_; }

 private:
  size_t slot_;
};

class BoundLiteral : public BoundExpr {
 public:
  explicit BoundLiteral(Value value) : value_(std::move(value)) {
    // A literal some stored row carries binds as its dictionary id, so
    // equality probes against stored (interned) VARCHARs compare ids; any
    // other string cannot equal a stored one and stays inline, leaving the
    // process-wide dictionary as it was.
    value_.InternIfKnown();
  }
  Value Evaluate(const Tuple&) const override { return value_; }
  void EvaluateColumn(const RowBatch&, const std::vector<uint32_t>& rows,
                      std::vector<Value>* out) const override {
    out->assign(rows.size(), value_);
  }
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// A `?` parameter of a planned statement: reads the statement's current
/// value on every evaluation, so one plan serves every binding.
/// `params` is owned by the statement and outlives the bound expression.
class BoundParam : public BoundExpr {
 public:
  BoundParam(const std::vector<Value>* params, size_t index)
      : params_(params), index_(index) {}
  Value Evaluate(const Tuple&) const override { return (*params_)[index_]; }
  void EvaluateColumn(const RowBatch&, const std::vector<uint32_t>& rows,
                      std::vector<Value>* out) const override {
    out->assign(rows.size(), (*params_)[index_]);
  }

 private:
  const std::vector<Value>* params_;
  size_t index_;
};

class BoundComparison : public BoundExpr {
 public:
  BoundComparison(sql::CompareOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Value Evaluate(const Tuple& row) const override {
    return Value(static_cast<int64_t>(EvaluateBool(row)));
  }
  bool EvaluateBool(const Tuple& row) const override;
  void FilterSelection(const RowBatch& batch,
                       std::vector<uint32_t>* rows) const override;
  int MaxSlot() const override {
    return std::max(lhs_->MaxSlot(), rhs_->MaxSlot());
  }

 private:
  sql::CompareOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class BoundLogical : public BoundExpr {
 public:
  BoundLogical(sql::LogicalOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Value Evaluate(const Tuple& row) const override {
    return Value(static_cast<int64_t>(EvaluateBool(row)));
  }
  bool EvaluateBool(const Tuple& row) const override {
    if (op_ == sql::LogicalOp::kAnd) {
      return lhs_->EvaluateBool(row) && rhs_->EvaluateBool(row);
    }
    return lhs_->EvaluateBool(row) || rhs_->EvaluateBool(row);
  }
  void FilterSelection(const RowBatch& batch,
                       std::vector<uint32_t>* rows) const override;
  int MaxSlot() const override {
    return std::max(lhs_->MaxSlot(), rhs_->MaxSlot());
  }

 private:
  sql::LogicalOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

class BoundNot : public BoundExpr {
 public:
  explicit BoundNot(BoundExprPtr child) : child_(std::move(child)) {}
  Value Evaluate(const Tuple& row) const override {
    return Value(static_cast<int64_t>(EvaluateBool(row)));
  }
  bool EvaluateBool(const Tuple& row) const override {
    return !child_->EvaluateBool(row);
  }
  void FilterSelection(const RowBatch& batch,
                       std::vector<uint32_t>* rows) const override;
  int MaxSlot() const override { return child_->MaxSlot(); }

 private:
  BoundExprPtr child_;
};

class BoundInList : public BoundExpr {
 public:
  BoundInList(BoundExprPtr needle, std::vector<Value> values)
      : needle_(std::move(needle)) {
    for (Value& v : values) {
      v.InternIfKnown();
      set_.insert(std::move(v));
    }
  }

  Value Evaluate(const Tuple& row) const override {
    return Value(static_cast<int64_t>(EvaluateBool(row)));
  }
  bool EvaluateBool(const Tuple& row) const override {
    Value v = needle_->Evaluate(row);
    if (v.is_null()) return false;
    return set_.count(v) > 0;
  }
  void FilterSelection(const RowBatch& batch,
                       std::vector<uint32_t>* rows) const override;
  int MaxSlot() const override { return needle_->MaxSlot(); }

 private:
  BoundExprPtr needle_;
  std::unordered_set<Value, ValueHash> set_;
};

}  // namespace dkb::exec

#endif  // DKB_EXEC_EXPR_H_
