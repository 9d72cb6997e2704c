#include "lfp/eval_context.h"

#include <unordered_set>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "km/naming.h"

namespace dkb::lfp {

namespace {

/// True when two sources have identical sharding layouts: same shard count
/// and same partition column. Because ShardOf is a pure function of the key
/// value, aligned sources place identical tuples in the same shard index —
/// which makes per-shard set operations (diff, copy) exact with no
/// cross-shard exchange.
bool Aligned(const ScanSource& a, const ScanSource& b) {
  return a.shard_count() == b.shard_count() &&
         a.partition_column() == b.partition_column();
}

/// Seed-fact INSERT ... VALUES text for an empty-body rule.
std::string SeedInsertSql(const datalog::Rule& seed,
                          const std::string& table) {
  std::string sql = "INSERT INTO " + table + " VALUES (";
  for (size_t i = 0; i < seed.head.args.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += seed.head.args[i].value.ToSqlLiteral();
  }
  sql += ")";
  return sql;
}

/// INSERT the (distinct) result of `select` into `table`, skipping rows
/// already present: INSERT INTO t (select) EXCEPT (SELECT * FROM t).
std::string InsertNewSql(const std::string& table, const std::string& select) {
  return "INSERT INTO " + table + " (" + select + ") EXCEPT (SELECT * FROM " +
         table + ")";
}

}  // namespace

Status EvalContext::Temp(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_temp_us);
  return db_->Execute(sql).status();
}

Status EvalContext::Rhs(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_rhs_us);
  return db_->Execute(sql).status();
}

Status EvalContext::Term(const std::string& sql) {
  ScopedAccumulator acc(&stats_->t_term_us);
  return db_->Execute(sql).status();
}

Result<int64_t> EvalContext::TermCount(const std::string& count_sql) {
  ScopedAccumulator acc(&stats_->t_term_us);
  return db_->QueryCount(count_sql);
}

Status EvalContext::CreateLike(const std::string& name,
                               const km::PredicateBinding& binding) {
  std::vector<Column> columns;
  columns.reserve(binding.columns.size());
  for (size_t i = 0; i < binding.columns.size(); ++i) {
    columns.push_back({binding.columns[i], binding.types[i]});
  }
  return CreateWithSchema(name, Schema(std::move(columns)));
}

Status EvalContext::CreateWithSchema(const std::string& name,
                                     const Schema& schema) {
  // A failed earlier run may have leaked the temp table; recreate cleanly.
  DKB_RETURN_IF_ERROR(Drop(name));
  std::string ddl = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += schema.column(i).name;
    ddl += schema.column(i).type == DataType::kInteger ? " INT" : " VARCHAR";
  }
  ddl += ")";
  return Temp(ddl);
}

Status EvalContext::EvalRuleInto(const datalog::Rule& rule,
                                 const km::BindingResolver& resolver,
                                 const std::string& target,
                                 const std::string& bind_prefix) {
  DKB_ASSIGN_OR_RETURN(
      km::RuleSqlProgram program,
      km::RuleToSqlProgram(rule, resolver, target, bind_prefix));
  for (const auto& bind : program.bind_tables) {
    DKB_RETURN_IF_ERROR(CreateWithSchema(bind.name, bind.schema));
  }
  Status status = Status::OK();
  for (const std::string& sql : program.statements) {
    status = Rhs(sql);
    if (!status.ok()) break;
  }
  for (const auto& bind : program.bind_tables) {
    Status drop = Drop(bind.name);
    if (status.ok()) status = drop;
  }
  return status;
}

km::BindingResolver EvalContext::CanonicalResolver(
    const km::QueryProgram& program) {
  return [&program](const datalog::Atom& atom,
                    size_t) -> Result<km::RelationBinding> {
    auto it = program.bindings.find(atom.predicate);
    if (it == program.bindings.end()) {
      return Status::Internal("no binding for " + atom.predicate);
    }
    return it->second.AsRelation();
  };
}

Status EvalContext::EvalExitRules(const km::QueryProgram& program,
                                  const km::ProgramNode& node,
                                  size_t node_index, bool into_new) {
  const std::string np = "#n" + std::to_string(node_index) + "x";
  for (size_t i = 0; i < node.exit_rules.size(); ++i) {
    const km::CompiledRule& cr = node.exit_rules[i];
    const std::string& head = cr.rule.head.predicate;
    const std::string target =
        into_new ? km::NewTableName(head) : program.bindings.at(head).table;
    if (cr.rule.body.empty()) {
      DKB_RETURN_IF_ERROR(Rhs(SeedInsertSql(cr.rule, target)));
    } else if (!cr.select_sql.empty()) {
      DKB_RETURN_IF_ERROR(Rhs(InsertNewSql(target, cr.select_sql)));
    } else {
      DKB_RETURN_IF_ERROR(EvalRuleInto(cr.rule, CanonicalResolver(program),
                                       target, np + std::to_string(i)));
    }
  }
  return Status::OK();
}

Status EvalContext::Clear(const std::string& name) {
  return Temp("DELETE FROM " + name);
}

Status EvalContext::Copy(const std::string& dst, const std::string& src) {
  return Temp("INSERT INTO " + dst + " SELECT * FROM " + src);
}

Status EvalContext::ClearTable(const std::string& name) {
  ScopedAccumulator acc(&stats_->t_temp_us);
  DKB_ASSIGN_OR_RETURN(ScanSource * table, db_->catalog().GetSource(name));
  table->Clear();
  return Status::OK();
}

Status EvalContext::CopyTable(const std::string& dst, const std::string& src) {
  ScopedAccumulator acc(&stats_->t_temp_us);
  DKB_ASSIGN_OR_RETURN(ScanSource * d, db_->catalog().GetSource(dst));
  DKB_ASSIGN_OR_RETURN(ScanSource * s, db_->catalog().GetSource(src));
  // Sessions read base tables at their pinned epoch; temps are unversioned
  // (visible at every epoch), so one epoch covers both source kinds.
  const Epoch at = db_->catalog().read_epoch();

  ThreadPool& pool = GlobalThreadPool();
  if (Aligned(*d, *s) && d->shard_count() > 1 && pool.num_threads() > 0) {
    // Aligned sources: shard i of src holds exactly the rows that belong in
    // shard i of dst, so shards copy independently — no routing, no locks
    // (distinct shards are mutable by distinct threads).
    std::vector<Status> statuses(d->shard_count());
    pool.ParallelFor(0, d->shard_count(), [&](size_t sh) {
      Table& to = d->shard(sh);
      const Table& from = s->shard(sh);
      RowBatch batch;
      RowId cursor = 0;
      while (true) {
        cursor = from.ScanBatch(cursor, &batch, at);
        if (batch.empty()) break;
        statuses[sh] = to.AppendBatch(batch);
        if (!statuses[sh].ok()) break;
      }
    });
    for (const Status& st : statuses) DKB_RETURN_IF_ERROR(st);
    return Status::OK();
  }

  // Serial / unaligned fallback: scan shard-major and let the destination's
  // AppendBatch hash-repartition rows to their home shards.
  RowBatch batch;
  for (size_t sh = 0; sh < s->shard_count(); ++sh) {
    RowId cursor = 0;
    while (true) {
      cursor = s->ScanBatch(sh, cursor, &batch, at);
      if (batch.empty()) break;
      DKB_RETURN_IF_ERROR(d->AppendBatch(batch));
    }
  }
  return Status::OK();
}

Result<int64_t> EvalContext::DiffInto(const std::string& diff,
                                      const std::string& new_table,
                                      const std::string& full) {
  ScopedAccumulator acc(&stats_->t_term_us);
  DKB_ASSIGN_OR_RETURN(ScanSource * dst, db_->catalog().GetSource(diff));
  DKB_ASSIGN_OR_RETURN(ScanSource * src_new,
                       db_->catalog().GetSource(new_table));
  DKB_ASSIGN_OR_RETURN(ScanSource * src_full,
                       db_->catalog().GetSource(full));
  const Epoch at = db_->catalog().read_epoch();

  // One shard's diff: dedups new-rows of shard `sh` against full-rows of
  // shard `sh`, appending survivors to dst's shard `sh`.
  auto diff_shard = [&](size_t sh, int64_t* appended) -> Status {
    const Table& full_shard = src_full->shard(sh);
    const Table& new_shard = src_new->shard(sh);
    Table& dst_shard = dst->shard(sh);

    // Seed the dedup set with the accumulated relation; stored tuples carry
    // interned VARCHARs, so hashing and equality are O(1) per value.
    std::unordered_set<Tuple, TupleHash> seen;
    seen.reserve(full_shard.num_tuples() + new_shard.num_tuples());
    RowBatch batch;
    RowId cursor = 0;
    while (true) {
      cursor = full_shard.ScanBatch(cursor, &batch, at);
      if (batch.empty()) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        seen.insert(batch.MaterializeTuple(i));
      }
    }

    RowBatch out;
    out.Reset(dst_shard.schema().num_columns());
    cursor = 0;
    while (true) {
      cursor = new_shard.ScanBatch(cursor, &batch, at);
      if (batch.empty()) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        Tuple t = batch.MaterializeTuple(i);
        if (seen.count(t) > 0) continue;
        out.AppendRow(t);
        seen.insert(std::move(t));
        ++*appended;
        if (out.full()) {
          DKB_RETURN_IF_ERROR(dst_shard.AppendBatch(out));
          out.Reset(dst_shard.schema().num_columns());
        }
      }
    }
    if (!out.empty()) DKB_RETURN_IF_ERROR(dst_shard.AppendBatch(out));
    return Status::OK();
  };

  const size_t nshards = dst->shard_count();
  ThreadPool& pool = GlobalThreadPool();
  if (nshards > 1 && Aligned(*dst, *src_new) && Aligned(*dst, *src_full)) {
    // Aligned layout means identical tuples land in the same shard index
    // everywhere, so each shard's diff is exact on its own — this is the
    // shard-parallel termination diff at the heart of the semi-naive loop.
    std::vector<int64_t> counts(nshards, 0);
    std::vector<Status> statuses(nshards);
    if (pool.num_threads() > 0) {
      pool.ParallelFor(0, nshards, [&](size_t sh) {
        statuses[sh] = diff_shard(sh, &counts[sh]);
      });
    } else {
      for (size_t sh = 0; sh < nshards; ++sh) {
        statuses[sh] = diff_shard(sh, &counts[sh]);
      }
    }
    int64_t appended = 0;
    for (size_t sh = 0; sh < nshards; ++sh) {
      DKB_RETURN_IF_ERROR(statuses[sh]);
      appended += counts[sh];
    }
    return appended;
  }
  if (nshards == 1 && src_new->shard_count() == 1 &&
      src_full->shard_count() == 1) {
    int64_t appended = 0;
    DKB_RETURN_IF_ERROR(diff_shard(0, &appended));
    return appended;
  }

  // Unaligned fallback: global dedup set over all shards of full, then
  // route survivors through dst's AppendBatch (hash repartitioning).
  std::unordered_set<Tuple, TupleHash> seen;
  seen.reserve(src_full->num_tuples() + src_new->num_tuples());
  RowBatch batch;
  src_full->Scan([&](RowId, const Tuple& t) { seen.insert(t); }, at);
  int64_t appended = 0;
  RowBatch out;
  out.Reset(dst->schema().num_columns());
  Status append_status = Status::OK();
  for (size_t sh = 0; sh < src_new->shard_count() && append_status.ok();
       ++sh) {
    RowId cursor = 0;
    while (append_status.ok()) {
      cursor = src_new->ScanBatch(sh, cursor, &batch, at);
      if (batch.empty()) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        Tuple t = batch.MaterializeTuple(i);
        if (seen.count(t) > 0) continue;
        out.AppendRow(t);
        seen.insert(std::move(t));
        ++appended;
        if (out.full()) {
          append_status = dst->AppendBatch(out);
          if (!append_status.ok()) break;
          out.Reset(dst->schema().num_columns());
        }
      }
    }
  }
  DKB_RETURN_IF_ERROR(append_status);
  if (!out.empty()) DKB_RETURN_IF_ERROR(dst->AppendBatch(out));
  return appended;
}

Status EvalContext::Drop(const std::string& name) {
  return Temp("DROP TABLE IF EXISTS " + name);
}

Result<int64_t> EvalContext::Count(const std::string& name) {
  DKB_ASSIGN_OR_RETURN(ScanSource * table, db_->catalog().GetSource(name));
  return static_cast<int64_t>(table->num_tuples());
}

}  // namespace dkb::lfp
