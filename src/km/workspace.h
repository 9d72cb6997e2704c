#ifndef DKB_KM_WORKSPACE_H_
#define DKB_KM_WORKSPACE_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"

namespace dkb::km {

/// Workspace D/KB Manager (paper §3.2.2): the memory-resident rule
/// environment the user edits before committing to the Stored D/KB.
///
/// Workspace rules may refer to predicates defined in the Stored D/KB and
/// vice versa; the query compiler resolves the union.
class Workspace {
 public:
  Workspace() = default;

  /// The check AddRule makes: InvalidArgument for a fact — ground facts
  /// belong in the extensional database — else OK.
  static Status CheckRule(const datalog::Rule& rule);

  /// Adds a rule; duplicate clauses (structural equality) are ignored.
  /// Facts are rejected (CheckRule).
  Status AddRule(datalog::Rule rule);

  /// True if a rule structurally equal to `rule` is in the workspace.
  bool Contains(const datalog::Rule& rule) const;

  /// Removes a rule by structural equality; false if absent.
  bool RemoveRule(const datalog::Rule& rule);

  void Clear() { rules_.clear(); }

  const std::vector<datalog::Rule>& rules() const { return rules_; }
  size_t num_rules() const { return rules_.size(); }

  /// Predicates defined by at least one workspace rule.
  std::set<std::string> HeadPredicates() const;

  /// Predicates appearing in rule bodies but defined by no workspace rule
  /// (they must be base predicates or Stored-D/KB derived predicates).
  std::set<std::string> UndefinedBodyPredicates() const;

 private:
  std::vector<datalog::Rule> rules_;
};

}  // namespace dkb::km

#endif  // DKB_KM_WORKSPACE_H_
