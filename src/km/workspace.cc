#include "km/workspace.h"

#include <algorithm>

namespace dkb::km {

Status Workspace::CheckRule(const datalog::Rule& rule) {
  if (rule.is_fact()) {
    return Status::InvalidArgument(
        "facts belong in the extensional database, not the workspace: " +
        rule.ToString());
  }
  return Status::OK();
}

Status Workspace::AddRule(datalog::Rule rule) {
  DKB_RETURN_IF_ERROR(CheckRule(rule));
  if (Contains(rule)) return Status::OK();  // idempotent
  rules_.push_back(std::move(rule));
  return Status::OK();
}

bool Workspace::Contains(const datalog::Rule& rule) const {
  return std::find(rules_.begin(), rules_.end(), rule) != rules_.end();
}

bool Workspace::RemoveRule(const datalog::Rule& rule) {
  auto it = std::find(rules_.begin(), rules_.end(), rule);
  if (it == rules_.end()) return false;
  rules_.erase(it);
  return true;
}

std::set<std::string> Workspace::HeadPredicates() const {
  return datalog::HeadPredicates(rules_);
}

std::set<std::string> Workspace::UndefinedBodyPredicates() const {
  std::set<std::string> heads = HeadPredicates();
  std::set<std::string> out;
  for (const datalog::Rule& rule : rules_) {
    for (const datalog::Atom& atom : rule.body) {
      if (heads.count(atom.predicate) == 0) out.insert(atom.predicate);
    }
  }
  return out;
}

}  // namespace dkb::km
