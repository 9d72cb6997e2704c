#include "lfp/instance.h"

#include "common/trace.h"
#include "lfp/naive.h"
#include "lfp/seminaive.h"
#include "lfp/tc_operator.h"

namespace dkb::lfp {

ProgramInstance::ProgramInstance(Database* db,
                                 const km::QueryProgram& program,
                                 LfpStrategy strategy)
    : db_(db),
      program_(&program),
      strategy_(strategy),
      db_id_(db->id()),
      schema_version_(db->catalog().schema_version()),
      relations_(db->catalog().default_shards()) {}

ProgramInstance::~ProgramInstance() = default;

bool ProgramInstance::ReusableFor(const Database& db,
                                  const km::QueryProgram& program,
                                  LfpStrategy strategy) const {
  return db.id() == db_id_ && &program == program_ && strategy == strategy_ &&
         db.catalog().schema_version() == schema_version_ && !reads_snapshot_;
}

int64_t ProgramInstance::IdleBytes() const {
  int64_t bytes = relations_.ApproxBytes();
  for (const RunRelations& scope : scopes_) bytes += scope.ApproxBytes();
  for (const std::unique_ptr<NodeRun>& node : nodes_) {
    bytes += node->IdleBytes();
  }
  return bytes;
}

Status ProgramInstance::Build(ExecutionStats* stats) {
  const size_t n = program_->nodes.size();
  {
    trace::ScopedPhase phase(&stats->t_temp_ns);
    for (const auto& [pred, binding] : program_->bindings) {
      if (binding.is_base) continue;
      DKB_RETURN_IF_ERROR(
          relations_.Empty(binding.table, binding.RelationSchema()).status());
    }
    scopes_.reserve(n);  // node contexts point into scopes_
    for (size_t i = 0; i < n; ++i) {
      scopes_.emplace_back(db_->catalog().default_shards(),
                           relations_.names());
    }
  }
  nodes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const km::ProgramNode& node = program_->nodes[i];
    EvalContext ctx(db_, stats, &scopes_[i], &params_);
    Result<std::unique_ptr<NodeRun>> built = Status::Internal("unreachable");
    TcShape shape;
    if (strategy_ == LfpStrategy::kNativeTc &&
        MatchesTransitiveClosure(node, &shape)) {
      built = BuildTcNode(*program_, shape);
    } else if (!node.is_clique) {
      built = BuildExitRulesNode(&ctx, *program_, node, i);
    } else if (strategy_ == LfpStrategy::kNaive) {
      built = BuildNaiveClique(&ctx, *program_, node, i);
    } else {
      built = BuildSemiNaiveClique(&ctx, *program_, node, i);
    }
    DKB_RETURN_IF_ERROR(built.status());
    nodes_.push_back(std::move(*built));
    reads_snapshot_ = reads_snapshot_ || ctx.planned_snapshot();
  }
  trace::ScopedPhase phase(&stats->t_final_ns);
  ++stats->statements_planned;
  DKB_ASSIGN_OR_RETURN(final_,
                       db_->Plan(program_->final_select, &relations_.names()));
  reads_snapshot_ = reads_snapshot_ || final_.reads_snapshot();
  return Status::OK();
}

Result<QueryResult> ProgramInstance::Answer() {
  if (final_.param_count() != params_.size()) {
    return Status::Internal("the final SELECT takes " +
                            std::to_string(final_.param_count()) +
                            " parameter(s), the goal has " +
                            std::to_string(params_.size()));
  }
  for (size_t k = 0; k < params_.size(); ++k) {
    DKB_RETURN_IF_ERROR(final_.Bind(k, params_[k]));
  }
  DKB_ASSIGN_OR_RETURN(const int64_t rows, final_.Run());
  QueryResult result;
  result.schema = final_.schema();
  result.rows.reserve(static_cast<size_t>(rows));
  for (const RowBatch& batch : final_.batches()) {
    for (size_t i = 0; i < batch.size(); ++i) {
      result.rows.push_back(batch.MaterializeTuple(i));
    }
  }
  return result;
}

void ProgramInstance::ReleasePlans() {
  nodes_.clear();
  final_ = PlannedStatement();
}

void ProgramInstance::Clear() {
  relations_.Clear();
  for (RunRelations& scope : scopes_) scope.Clear();
  for (std::unique_ptr<NodeRun>& node : nodes_) node->Clear();
  final_.ClearBatches();
}

}  // namespace dkb::lfp
