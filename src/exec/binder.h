#ifndef DKB_EXEC_BINDER_H_
#define DKB_EXEC_BINDER_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/expr.h"
#include "sql/ast.h"

namespace dkb::exec {

/// One FROM-list entry resolved against the catalog.
struct TableBinding {
  std::string name;         // effective (alias or table) name
  const ScanSource* table;  // resolved storage source (Table or ShardedTable)
  size_t offset;  // first slot of this table's columns in the joined row
  Epoch read_epoch = kLatestEpoch;  // epoch scans of this table read at
};

/// Name-resolution scope for a single SELECT core: the FROM-list tables in
/// order, with each table's columns occupying a contiguous slot range of the
/// (conceptual) fully-joined row.
class Scope {
 public:
  Status AddTable(std::string name, const ScanSource* table,
                  Epoch read_epoch = kLatestEpoch);

  const std::vector<TableBinding>& bindings() const { return bindings_; }
  size_t total_columns() const { return total_columns_; }

  struct ResolvedColumn {
    size_t binding;      // index into bindings()
    size_t column;       // column index within that table
    size_t global_slot;  // binding offset + column
    DataType type;
    std::string name;    // column name
  };

  /// Resolves `[qualifier.]column`. Unqualified names must be unambiguous.
  Result<ResolvedColumn> Resolve(const std::string& qualifier,
                                 const std::string& column) const;

 private:
  std::vector<TableBinding> bindings_;
  size_t total_columns_ = 0;
};

/// How slots are assigned when binding an expression.
enum class SlotMode {
  kGlobal,     // slots relative to the fully joined row (scope offsets)
  kTableLocal  // slots relative to a single table's row (offset ignored);
               // only valid when every column resolves to one binding
};

/// Binds `expr` against `scope`. In kTableLocal mode `local_binding` selects
/// which table the expression must be local to. `params` holds the values
/// of the `?` placeholders: a parameter binds as a BoundParam that reads its
/// slot of `*params` on every evaluation, so `*params` must outlive the
/// bound expression. An expression containing a parameter past the end of
/// `*params` (or with no `params`) fails with InvalidArgument.
Result<BoundExprPtr> BindExpr(const sql::Expr& expr, const Scope& scope,
                              SlotMode mode, size_t local_binding = 0,
                              const std::vector<Value>* params = nullptr);

/// Collects the set of binding indices referenced by `expr`.
Result<std::set<size_t>> ReferencedBindings(const sql::Expr& expr,
                                            const Scope& scope);

/// Splits a predicate tree into top-level AND conjuncts.
void SplitConjuncts(const sql::Expr* expr, std::vector<const sql::Expr*>* out);

/// Binds an expression against an operator's *output* schema (slots are
/// output column positions); used for HAVING. Column references must be
/// unqualified output names or aliases.
Result<BoundExprPtr> BindAgainstSchema(const sql::Expr& expr,
                                       const Schema& schema,
                                       const std::vector<Value>* params =
                                           nullptr);

/// Resolves an expression that must be constant at plan time: a literal, or a
/// `?` parameter with a bound value. Returns nullptr otherwise.
const Value* ConstOperand(const sql::Expr& expr,
                          const std::vector<Value>* params);

}  // namespace dkb::exec

#endif  // DKB_EXEC_BINDER_H_
