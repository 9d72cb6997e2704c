#include "lfp/seminaive.h"

#include <algorithm>
#include <memory>
#include <span>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "km/naming.h"
#include "lfp/dedup_index.h"

namespace dkb::lfp {

namespace {

/// One clique member while the clique iterates. Its IDB relation only grows
/// until the fixpoint, so the relation before the last iteration and the
/// last iteration's delta are slot windows over it, and its dedup index
/// holds exactly the relation's distinct rows.
struct Member {
  ScanSource* full = nullptr;   // idb_p
  SlotWindow* prev = nullptr;   // [0, w_prev) of every shard
  SlotWindow* delta = nullptr;  // [w_prev, w_full)
  std::vector<DedupIndex> seen;  // one per shard of `full`
  /// The planned SELECTs of the variants whose head is this member.
  std::vector<PlannedStatement*> selects;
  /// Sharded relations only: per shard, the iteration's rows whose home it
  /// is (kept across iterations for their capacity).
  std::vector<RowBatch> routed;
};

/// The work of one iteration outside SQL statements (NodeStats::new_sizes
/// and NodeStats::driver_rows).
struct IterationWork {
  int64_t derived = 0;  // rows the variants' SELECTs returned
  int64_t driver = 0;   // rows routed, probed, inserted, appended or cleared
};

/// Interns every VARCHAR of `batch` in place. The dedup index keys strings
/// on their dictionary ids, so an inline copy of a stored string would miss
/// the index, go to its side set, and be admitted a second time. Stored
/// values arrive interned, but a rule's string constant binds inline until
/// some stored row carries it, and the absorbed row stores it.
void InternStrings(RowBatch* batch) {
  for (size_t c = 0; c < batch->num_columns(); ++c) {
    for (Value& v : batch->column(c)) v.InternInPlace();
  }
}

/// Appends to shard `sh` of m->full the rows of `batches` that its dedup
/// index has not seen; every row's home shard must be `sh`. The variants'
/// SELECTs project the head's typed columns, so rows go in unchecked.
/// Returns the number of rows appended.
int64_t AbsorbShard(Member* m, size_t sh, std::span<const RowBatch> batches) {
  Table& shard = m->full->shard(sh);
  DedupIndex& seen = m->seen[sh];
  int64_t appended = 0;
  for (const RowBatch& batch : batches) {
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!seen.Insert(batch, i)) continue;
      shard.InsertUnchecked(batch.MaterializeTuple(i));
      ++appended;
    }
  }
  return appended;
}

/// A member's part of the termination step: appends the rows its variants'
/// SELECTs returned that are new to the relation, then moves the windows so
/// the next iteration's delta is exactly those rows and its previous
/// relation everything before them. Returns the number of rows appended.
int64_t Absorb(Member* m, IterationWork* work) {
  const size_t shards = m->full->shard_count();
  int64_t derived = 0;
  for (PlannedStatement* select : m->selects) {
    for (RowBatch& batch : select->batches()) {
      InternStrings(&batch);
      derived += static_cast<int64_t>(batch.size());
    }
  }
  int64_t appended = 0;
  if (shards == 1) {
    for (PlannedStatement* select : m->selects) {
      appended += AbsorbShard(m, 0, select->batches());
    }
  } else {
    // Route every row to its home shard first; then each shard probes and
    // appends only its own rows, so the shards absorb in parallel when the
    // pool has workers (and inline when it has none).
    const size_t pc = m->full->partition_column();
    for (RowBatch& routed : m->routed) {
      routed.Reset(m->full->schema().num_columns());
    }
    for (PlannedStatement* select : m->selects) {
      for (const RowBatch& batch : select->batches()) {
        for (size_t i = 0; i < batch.size(); ++i) {
          m->routed[m->full->ShardOfValue(batch.At(i, pc))].AppendRowOf(batch,
                                                                       i);
        }
      }
    }
    work->driver += derived;
    std::vector<int64_t> counts(shards, 0);
    GlobalThreadPool().ParallelFor(0, shards, [&](size_t sh) {
      counts[sh] = AbsorbShard(m, sh, {&m->routed[sh], 1});
    });
    for (int64_t n : counts) appended += n;
  }
  work->derived += derived;
  work->driver += 2 * derived + 2 * appended;
  // The delta window still ends where each shard ended before the appends.
  for (size_t s = 0; s < shards; ++s) {
    const RowId end = m->delta->ScanEnd(s);
    m->prev->Set(s, 0, end);
    m->delta->Set(s, end, m->full->shard(s).num_slots());
  }
  return appended;
}

/// p^(0): the exit rules wrote their rows straight into the relation; they
/// fill the dedup index and are the first delta (the previous relation
/// starts empty: the run began with every window empty).
void Seed(Member* m) {
  RowBatch batch;
  for (size_t s = 0; s < m->full->shard_count(); ++s) {
    const Table& shard = m->full->shard(s);
    RowId cursor = 0;
    while (true) {
      cursor = shard.ScanBatch(cursor, &batch);
      if (batch.empty()) break;
      for (size_t i = 0; i < batch.size(); ++i) m->seen[s].Insert(batch, i);
    }
    m->delta->Set(s, 0, shard.num_slots());
  }
}

/// The termination step (paper §3.3): every member absorbs its variants'
/// rows into its relation, and the binding tables are emptied for the next
/// iteration. Returns the number of rows new to the relations, the next
/// delta.
int64_t Terminate(EvalContext* ctx, std::vector<Member>* members,
                  const std::vector<ScanSource*>& bind_tables,
                  IterationWork* work) {
  int64_t delta = 0;
  {
    trace::ScopedPhase phase(&ctx->stats()->t_term_ns);
    for (Member& m : *members) delta += Absorb(&m, work);
  }
  if (bind_tables.empty()) return delta;
  trace::ScopedPhase phase(&ctx->stats()->t_temp_ns);
  for (ScanSource* table : bind_tables) {
    work->driver += static_cast<int64_t>(table->num_tuples());
    table->Clear();
  }
  return delta;
}

/// A clique's semi-naive state, built once per instance: the members'
/// windows and dedup indexes, the binding tables, the planned variant
/// SELECTs and the planned exit rules.
class SemiNaiveClique : public NodeRun {
 public:
  static Result<std::unique_ptr<NodeRun>> Build(
      EvalContext* ctx, const km::QueryProgram& program,
      const km::ProgramNode& node, size_t node_index) {
    auto clique = std::unique_ptr<SemiNaiveClique>(new SemiNaiveClique());
    // Per member: the windows the variant SQL reads as #p_delta and
    // #p_prev, and the dedup index.
    clique->members_.resize(node.predicates.size());
    for (size_t k = 0; k < node.predicates.size(); ++k) {
      const std::string& p = node.predicates[k];
      const km::PredicateBinding& b = program.bindings.at(p);
      Member& m = clique->members_[k];
      DKB_ASSIGN_OR_RETURN(m.full, ctx->Source(b.table));
      auto prev = std::make_unique<SlotWindow>(km::PrevTableName(p), m.full);
      auto delta = std::make_unique<SlotWindow>(km::DeltaTableName(p), m.full);
      m.prev = prev.get();
      m.delta = delta.get();
      DKB_RETURN_IF_ERROR(ctx->relations().Add(std::move(prev)));
      DKB_RETURN_IF_ERROR(ctx->relations().Add(std::move(delta)));
      m.seen.assign(m.full->shard_count(), DedupIndex(b.columns.size()));
      if (m.full->shard_count() > 1) m.routed.resize(m.full->shard_count());
    }

    // The variants' binding tables (rules with negation), then every
    // variant statement bound and planned once for every run. The last
    // statement of a variant is its SELECT, whose rows its head member
    // absorbs.
    size_t statements = 0;
    for (const km::RuleVariant& variant : node.variants) {
      for (const km::RuleSqlProgram::BindTable& bind :
           variant.sql.bind_tables) {
        DKB_ASSIGN_OR_RETURN(ScanSource * table,
                             ctx->Temporary(bind.name, bind.schema));
        clique->bind_tables_.push_back(table);
      }
      statements += variant.sql.statements.size();
    }
    std::vector<PlannedStatement>& plans = clique->plans_;
    plans.reserve(statements);  // members point at the SELECTs
    for (const km::RuleVariant& variant : node.variants) {
      for (const std::string& sql : variant.sql.statements) {
        DKB_ASSIGN_OR_RETURN(PlannedStatement planned, ctx->Plan(sql));
        plans.push_back(std::move(planned));
      }
      const std::string& head =
          node.recursive_rules[variant.rule].head.predicate;
      const size_t k =
          std::find(node.predicates.begin(), node.predicates.end(), head) -
          node.predicates.begin();
      clique->members_[k].selects.push_back(&plans.back());
    }
    DKB_ASSIGN_OR_RETURN(
        clique->exits_,
        ExitRules::Plan(ctx, program, node, node_index, /*into_new=*/false));
    return std::unique_ptr<NodeRun>(std::move(clique));
  }

  Result<int64_t> Evaluate(EvalContext* ctx) override {
    // p^(0): the exit rules insert into the IDB relations, and their rows
    // seed the dedup indexes as the first delta.
    DKB_RETURN_IF_ERROR(exits_.Run(ctx));
    {
      trace::ScopedPhase phase(&ctx->stats()->t_term_ns);
      for (Member& m : members_) Seed(&m);
    }

    NodeStats& record = ctx->node();
    int64_t iterations = 0;
    while (true) {
      ++iterations;
      trace::ScopedPhase iter_span(ctx->span(), "iteration");
      iter_span.Tag("iter", iterations);
      const int64_t rhs_before = ctx->stats()->t_rhs_ns;
      const int64_t term_before = ctx->stats()->t_term_ns;
      // Every variant runs against the relations as the last iteration left
      // them; only then do the members absorb the rows.
      for (PlannedStatement& planned : plans_) {
        DKB_RETURN_IF_ERROR(ctx->Rhs(&planned));
      }
      IterationWork work;
      const int64_t delta = Terminate(ctx, &members_, bind_tables_, &work);
      record.delta_sizes.push_back(delta);
      record.new_sizes.push_back(work.derived);
      record.driver_rows.push_back(work.driver);
      record.rhs_us.push_back(
          NanosToMicros(ctx->stats()->t_rhs_ns - rhs_before));
      record.term_us.push_back(
          NanosToMicros(ctx->stats()->t_term_ns - term_before));
      iter_span.Tag("delta", delta);
      iter_span.Tag("new_rows", work.derived);
      iter_span.Tag("driver_rows", work.driver);
      iter_span.Tag("rhs_us", record.rhs_us.back());
      iter_span.Tag("term_us", record.term_us.back());
      if (delta == 0) break;
    }
    return iterations;
  }

  /// The windows and binding tables are relations of the node, which the
  /// instance empties; the indexes and the variants' last rows are not.
  void Clear() override {
    for (Member& m : members_) {
      for (DedupIndex& seen : m.seen) seen.Clear();
      for (RowBatch& routed : m.routed) routed.Reset(routed.num_columns());
    }
    for (PlannedStatement& planned : plans_) planned.ClearBatches();
  }

  int64_t IdleBytes() const override {
    int64_t bytes = 0;
    for (const Member& m : members_) {
      for (const DedupIndex& seen : m.seen) {
        bytes += static_cast<int64_t>(seen.ApproxBytes());
      }
    }
    return bytes;
  }

 private:
  SemiNaiveClique() = default;

  std::vector<Member> members_;
  std::vector<ScanSource*> bind_tables_;
  std::vector<PlannedStatement> plans_;
  ExitRules exits_;
};

}  // namespace

Result<std::unique_ptr<NodeRun>> BuildSemiNaiveClique(
    EvalContext* ctx, const km::QueryProgram& program,
    const km::ProgramNode& node, size_t node_index) {
  return SemiNaiveClique::Build(ctx, program, node, node_index);
}

}  // namespace dkb::lfp
