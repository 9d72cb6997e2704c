#include "lfp/seminaive.h"

#include <memory>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "km/naming.h"
#include "lfp/dedup_index.h"

namespace dkb::lfp {

namespace {

/// One clique member while the clique iterates. Its IDB table only grows
/// until the fixpoint, so the relation before the last iteration and the
/// last iteration's delta are slot windows over it, and its dedup index
/// holds exactly the table's distinct rows.
struct Member {
  ScanSource* full = nullptr;   // idb_p
  ScanSource* fresh = nullptr;  // #p_new, written by the variants
  SlotWindow* prev = nullptr;   // [0, w_prev) of every shard
  SlotWindow* delta = nullptr;  // [w_prev, w_full)
  std::vector<DedupIndex> seen;  // one per shard of `full`
};

/// What one shard of #p_new contributed to a termination step.
struct ShardCounts {
  int64_t read = 0;      // rows scanned, each probed once
  int64_t appended = 0;  // rows new to the relation: inserted and appended
};

/// The work of one iteration outside SQL statements (NodeStats::new_sizes
/// and NodeStats::driver_rows).
struct IterationWork {
  int64_t fresh = 0;   // rows the variants wrote to #p_new
  int64_t driver = 0;  // rows read, probed, inserted, appended or cleared
};

/// Probes the rows of shard `sh` of m->fresh against the dedup index of
/// their home shard in m->full and appends the new ones there. When the two
/// layouts are aligned every row's home shard is `sh`, so distinct shards
/// may run concurrently.
Status AbsorbShard(Member* m, size_t sh, ShardCounts* counts) {
  const Table& from = m->fresh->shard(sh);
  const size_t homes = m->full->shard_count();
  const size_t pc = m->full->partition_column();
  const size_t width = m->full->schema().num_columns();
  std::vector<RowBatch> out(homes);
  for (RowBatch& b : out) b.Reset(width);
  RowBatch batch;
  RowId cursor = 0;
  while (true) {
    cursor = from.ScanBatch(cursor, &batch);
    if (batch.empty()) break;
    counts->read += static_cast<int64_t>(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const size_t home =
          homes == 1 ? 0 : m->full->ShardOfValue(batch.At(i, pc));
      if (!m->seen[home].Insert(batch, i)) continue;
      ++counts->appended;
      out[home].AppendRowOf(batch, i);
      if (out[home].full()) {
        DKB_RETURN_IF_ERROR(m->full->shard(home).AppendBatch(out[home]));
        out[home].Reset(width);
      }
    }
  }
  for (size_t home = 0; home < homes; ++home) {
    if (!out[home].empty()) {
      DKB_RETURN_IF_ERROR(m->full->shard(home).AppendBatch(out[home]));
    }
  }
  return Status::OK();
}

/// A member's part of the termination step: appends the rows of #p_new that
/// are new to the relation, then moves the windows so the next iteration's
/// delta is exactly those rows and its previous relation everything before
/// them. Returns the number of rows appended.
Result<int64_t> Absorb(Member* m, IterationWork* work) {
  const size_t shards = m->full->shard_count();
  std::vector<RowId> before(shards);
  for (size_t s = 0; s < shards; ++s) before[s] = m->full->shard(s).num_slots();

  const size_t sources = m->fresh->shard_count();
  std::vector<ShardCounts> counts(sources);
  std::vector<Status> statuses(sources);
  ThreadPool& pool = GlobalThreadPool();
  const bool aligned = sources == shards &&
                       m->fresh->partition_column() ==
                           m->full->partition_column();
  if (aligned && shards > 1 && pool.num_threads() > 0) {
    pool.ParallelFor(0, shards, [&](size_t sh) {
      statuses[sh] = AbsorbShard(m, sh, &counts[sh]);
    });
  } else {
    for (size_t sh = 0; sh < sources && statuses[sh].ok(); ++sh) {
      statuses[sh] = AbsorbShard(m, sh, &counts[sh]);
    }
  }
  int64_t appended = 0;
  for (size_t sh = 0; sh < sources; ++sh) {
    DKB_RETURN_IF_ERROR(statuses[sh]);
    work->fresh += counts[sh].read;
    work->driver += 2 * counts[sh].read + 2 * counts[sh].appended;
    appended += counts[sh].appended;
  }
  for (size_t s = 0; s < shards; ++s) {
    m->prev->Set(s, 0, before[s]);
    m->delta->Set(s, before[s], m->full->shard(s).num_slots());
  }
  return appended;
}

/// The termination step (paper §3.3): every member absorbs its #p_new into
/// its relation, and the temporaries are emptied for the next iteration.
/// Returns the number of rows new to the relations, the next delta.
Result<int64_t> Terminate(EvalContext* ctx, std::vector<Member>* members,
                          const std::vector<ScanSource*>& bind_tables,
                          IterationWork* work) {
  int64_t delta = 0;
  {
    ScopedAccumulator acc(&ctx->stats()->t_term_us);
    for (Member& m : *members) {
      DKB_ASSIGN_OR_RETURN(int64_t appended, Absorb(&m, work));
      delta += appended;
    }
  }
  ScopedAccumulator acc(&ctx->stats()->t_temp_us);
  for (Member& m : *members) {
    work->driver += static_cast<int64_t>(m.fresh->num_tuples());
    m.fresh->Clear();
  }
  for (ScanSource* table : bind_tables) {
    work->driver += static_cast<int64_t>(table->num_tuples());
    table->Clear();
  }
  return delta;
}

}  // namespace

Result<int64_t> EvaluateCliqueSemiNaive(EvalContext* ctx,
                                        const km::QueryProgram& program,
                                        const km::ProgramNode& node,
                                        size_t node_index) {
  // Per member: the #p_new temporary, the windows the variant SQL reads as
  // #p_delta and #p_prev, and the dedup index.
  std::vector<Member> members(node.predicates.size());
  for (size_t k = 0; k < node.predicates.size(); ++k) {
    const std::string& p = node.predicates[k];
    const km::PredicateBinding& b = program.bindings.at(p);
    Member& m = members[k];
    DKB_ASSIGN_OR_RETURN(m.full, ctx->Source(b.table));
    DKB_ASSIGN_OR_RETURN(
        m.fresh, ctx->Temporary(km::NewTableName(p), b.RelationSchema()));
    auto prev = std::make_unique<SlotWindow>(km::PrevTableName(p), m.full);
    auto delta = std::make_unique<SlotWindow>(km::DeltaTableName(p), m.full);
    m.prev = prev.get();
    m.delta = delta.get();
    DKB_RETURN_IF_ERROR(ctx->relations().Add(std::move(prev)));
    DKB_RETURN_IF_ERROR(ctx->relations().Add(std::move(delta)));
    m.seen.assign(m.full->shard_count(), DedupIndex(b.columns.size()));
  }

  // The variants' binding tables (rules with negation), then every variant
  // statement bound and planned once for the whole run.
  std::vector<ScanSource*> bind_tables;
  for (const km::RuleVariant& variant : node.variants) {
    for (const km::RuleSqlProgram::BindTable& bind : variant.sql.bind_tables) {
      DKB_ASSIGN_OR_RETURN(ScanSource * table,
                           ctx->Temporary(bind.name, bind.schema));
      bind_tables.push_back(table);
    }
  }
  std::vector<PlannedStatement> plans;
  for (const km::RuleVariant& variant : node.variants) {
    for (const std::string& sql : variant.sql.statements) {
      DKB_ASSIGN_OR_RETURN(PlannedStatement planned, ctx->Plan(sql));
      plans.push_back(std::move(planned));
    }
  }

  // p^(0): the exit rules' rows, absorbed like any iteration's, become the
  // first delta (the previous relation starts empty).
  DKB_RETURN_IF_ERROR(
      ctx->EvalExitRules(program, node, node_index, /*into_new=*/true));
  IterationWork seed_work;
  DKB_RETURN_IF_ERROR(
      Terminate(ctx, &members, bind_tables, &seed_work).status());

  int64_t iterations = 0;
  while (true) {
    ++iterations;
    trace::ScopedSpan iter_span(ctx->span(), "iteration");
    iter_span.Tag("iter", iterations);
    for (PlannedStatement& planned : plans) {
      DKB_RETURN_IF_ERROR(ctx->Rhs(&planned));
    }
    IterationWork work;
    DKB_ASSIGN_OR_RETURN(int64_t delta,
                         Terminate(ctx, &members, bind_tables, &work));
    ctx->delta_sizes().push_back(delta);
    ctx->new_sizes().push_back(work.fresh);
    ctx->driver_rows().push_back(work.driver);
    iter_span.Tag("delta", delta);
    iter_span.Tag("new_rows", work.fresh);
    iter_span.Tag("driver_rows", work.driver);
    if (delta == 0) break;
  }
  return iterations;
}

}  // namespace dkb::lfp
