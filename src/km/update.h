#ifndef DKB_KM_UPDATE_H_
#define DKB_KM_UPDATE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "km/stored_dkb.h"
#include "km/workspace.h"

namespace dkb::km {

/// Per-update timing breakdown (paper §5.3.2, Table 8).
struct UpdateStats {
  int64_t t_extract_us = 0;    // extract rules relevant to the update
  int64_t t_tc_us = 0;         // incremental transitive closure of the PCG
  int64_t t_typecheck_us = 0;  // semantic/type check of the composite
  int64_t t_dict_us = 0;       // idbrel / idbcol / reachablepreds updates
  int64_t t_store_us = 0;      // rulesource inserts (source form)
  /// The phases' buckets: Check and Apply round each into its _us field.
  int64_t t_extract_ns = 0, t_tc_ns = 0, t_typecheck_ns = 0, t_dict_ns = 0,
          t_store_ns = 0;

  int64_t rules_stored = 0;    // new rulesource rows
  int64_t closure_edges = 0;   // |TC| of the composite PCG (the paper's R_c)
  int64_t composite_rules = 0;
  int64_t affected_preds = 0;  // predicates whose dictionary rows it wrote

  int64_t total_us() const { return SumPhases(*this); }

  /// Table 8's phases in order.
  static constexpr PhaseField<UpdateStats> kPhases[] = {
      {"extract", &UpdateStats::t_extract_us, &UpdateStats::t_extract_ns},
      {"tc", &UpdateStats::t_tc_us, &UpdateStats::t_tc_ns},
      {"typecheck", &UpdateStats::t_typecheck_us, &UpdateStats::t_typecheck_ns},
      {"dict", &UpdateStats::t_dict_us, &UpdateStats::t_dict_ns},
      {"store", &UpdateStats::t_store_us, &UpdateStats::t_store_ns},
  };
};

/// What an update's check (steps 1-4) decided, for its apply (steps 5-7)
/// to write.
struct UpdatePlan {
  std::set<std::string> affected;  // predicates whose dictionary rows change
  std::vector<std::pair<std::string, std::string>> closure;  // composite TC
  std::map<std::string, PredicateTypes> derived_types;
  UpdateStats stats;  // the check's counts and phase times
};

/// Stored D/KB update processor (paper §4.3): commits the Workspace rules
/// into the Stored DKB, incrementally maintaining the compiled rule-storage
/// structures.
///
/// With compiled_rule_storage enabled, the transitive closure is recomputed
/// only over the *composite* PCG — the workspace rules, the stored rules
/// downstream of their predicates, and the stored rules of the predicates
/// upstream of the updated heads — not over the whole stored rule base.
/// Only the *affected* predicates (the updated heads and their stored
/// upstream) can gain reachable predicates or a type, so only their
/// dictionary and reachability rows are written. Without compiled storage,
/// only the source form is stored (the fast-update configuration of
/// Fig 15).
class UpdateProcessor {
 public:
  explicit UpdateProcessor(StoredDkb* stored) : stored_(stored) {}

  /// Steps 1-4, which read the stored DKB and write nothing. SemanticError
  /// when a rule's head is a base predicate or a body predicate is neither
  /// stored nor defined by the update; TypeError when the composite rule
  /// set does not type-check. Without compiled storage only the head check
  /// runs.
  Result<UpdatePlan> Check(const Workspace& workspace);

  /// Steps 5-7: writes the dictionary rows `plan` decided and stores the
  /// source form of the workspace rules `plan` was checked against.
  Result<UpdateStats> Apply(const Workspace& workspace,
                            const UpdatePlan& plan);

  /// Check, then Apply.
  Result<UpdateStats> Update(const Workspace& workspace);

 private:
  StoredDkb* stored_;
};

}  // namespace dkb::km

#endif  // DKB_KM_UPDATE_H_
