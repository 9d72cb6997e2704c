#ifndef DKB_EXEC_PLANNER_H_
#define DKB_EXEC_PLANNER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/plan.h"
#include "sql/ast.h"

namespace dkb::exec {

/// Relations bound by name for one statement, ahead of the catalog (FROM
/// lists, INSERT and DELETE targets); the LFP run binds the relations it
/// owns this way. Keys are lower-case (names resolve case-insensitively,
/// as in the catalog).
using NamedSources = std::unordered_map<std::string, ScanSource*>;

/// Compiles a SELECT statement into a physical operator tree.
///
/// Planning heuristics (deliberately 1988-vintage, matching the paper's
/// commercial DBMS behaviour):
///  * tables join left-to-right in FROM order;
///  * per-table access path: index scan when an equality/IN predicate matches
///    an index, otherwise filtered sequential scan;
///  * join method: index nested-loop when the inner table has an index on
///    the equi-join columns, otherwise hash join on equi predicates,
///    otherwise tuple nested-loop.
/// `params` holds the values of the `?` placeholders. A parameter takes
/// part in access-path selection exactly like a literal (`col = ?` on an
/// indexed column is an index scan), but the plan reads its slot of
/// `*params` at every evaluation and Open instead of copying the value, so
/// one plan serves every binding and `*params` must outlive it.
/// `sources`, when set, binds FROM-list names ahead of the catalog (read at
/// the catalog's read epoch).
Result<PlanNodePtr> PlanSelect(const sql::SelectStmt& stmt,
                               const Catalog& catalog, ExecStats* stats,
                               const std::vector<Value>* params = nullptr,
                               const NamedSources* sources = nullptr);

}  // namespace dkb::exec

#endif  // DKB_EXEC_PLANNER_H_
