#ifndef DKB_LFP_INSTANCE_H_
#define DKB_LFP_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "km/codegen.h"
#include "lfp/eval_context.h"
#include "lfp/evaluator.h"
#include "rdbms/database.h"

namespace dkb::lfp {

/// One query program's run state, built once and run any number of times
/// (paper conclusion #3: the run time library executes embedded SQL that
/// the preprocessor compiled once). It holds the run's relations, each
/// node's evaluator state (dedup indexes, windows, temporaries) and every
/// statement a run executes, each planned once through Database::Plan: the
/// exit-rule INSERTs, the magic seed, the semi-naive variant SELECTs and the
/// final SELECT. Naive's per-iteration SQL and the transitive-closure
/// operator run on the same relations.
///
/// Lifecycle: RunProgram builds an instance (relations, node states,
/// plans), binds the goal's constants (km::QueryParameters) to the seed and
/// final SELECT, runs the nodes and the final SELECT, and then empties the
/// relations, indexes and result batches, so an idle instance holds no
/// rows. The next run of the same program binds new constants and re-runs
/// the plans; nothing is planned or built again.
///
/// A plan pins the catalog tables it reads, their read epoch and the
/// indexes it probes, so an instance is only reusable on the Database it
/// was built on (Database::id; a session builds a new Database per pinned
/// epoch) while that catalog's schema version is unchanged (any DDL forces a
/// rebuild), and never when a plan materialized a sys.* snapshot. An
/// instance is not thread-safe: one run at a time uses it.
class ProgramInstance {
 public:
  ProgramInstance(const ProgramInstance&) = delete;
  ProgramInstance& operator=(const ProgramInstance&) = delete;
  ~ProgramInstance();

  /// Whether a run of `program` with `strategy` on `db` may reuse this
  /// instance instead of building a new one.
  bool ReusableFor(const Database& db, const km::QueryProgram& program,
                   LfpStrategy strategy) const;

  /// Bytes the idle instance keeps allocated: its relations' storage and
  /// the capacity of its dedup indexes and buffered batches (reported, not
  /// bounded).
  int64_t IdleBytes() const;

 private:
  friend Result<QueryResult> RunProgram(
      Database* db, const km::QueryProgram& program,
      const datalog::Atom& query, const EvalOptions& options,
      std::unique_ptr<ProgramInstance>* keep, ExecutionStats* stats);

  ProgramInstance(Database* db, const km::QueryProgram& program,
                  LfpStrategy strategy);

  /// Builds the relations (temp bucket), every node's state and the final
  /// SELECT's plan (RHS and final buckets), counting each planned statement
  /// in stats->statements_planned.
  Status Build(ExecutionStats* stats);

  /// Binds params_ to the final SELECT, runs it and returns its rows.
  Result<QueryResult> Answer();

  /// Empties what a run left: relations, node states, the answer batches.
  void Clear();

  /// Frees the node states and planned statements ahead of the relations
  /// they reference (a dropped instance).
  void ReleasePlans();

  Database* db_;
  const km::QueryProgram* program_;
  LfpStrategy strategy_;
  uint64_t db_id_;
  uint64_t schema_version_;
  bool reads_snapshot_ = false;
  /// The IDB relations, shared by the nodes, then one scope per node for
  /// its temporaries and windows (declared first: freed last).
  RunRelations relations_;
  std::vector<RunRelations> scopes_;
  std::vector<std::unique_ptr<NodeRun>> nodes_;
  PlannedStatement final_;
  /// The run's parameter values; node contexts read them by address.
  std::vector<Value> params_;
};

}  // namespace dkb::lfp

#endif  // DKB_LFP_INSTANCE_H_
