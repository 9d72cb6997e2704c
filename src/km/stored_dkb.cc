#include "km/stored_dkb.h"

#include "datalog/parser.h"
#include "km/naming.h"

namespace dkb::km {

namespace {

/// Renders a value set as SQL string literals for an IN list.
std::string QuoteList(const std::set<std::string>& values) {
  std::string out;
  for (const std::string& v : values) {
    if (!out.empty()) out += ", ";
    out += Value(v).ToSqlLiteral();
  }
  return out;
}

const char* TypeToDict(DataType t) {
  return t == DataType::kInteger ? "integer" : "char";
}

Result<DataType> DictToType(const std::string& s) {
  if (s == "integer") return DataType::kInteger;
  if (s == "char") return DataType::kVarchar;
  return Status::Internal("unknown dictionary type '" + s + "'");
}

}  // namespace

StoredDkb::StoredDkb(Database* db, Options options)
    : db_(db), options_(options) {}

Status StoredDkb::Initialize() {
  DKB_RETURN_IF_ERROR(db_->ExecuteAll(
      "CREATE TABLE idbrel (predname VARCHAR, arity INT);"
      "CREATE TABLE idbcol (predname VARCHAR, colnum INT, coltype VARCHAR);"
      "CREATE TABLE rulesource (headpredname VARCHAR, ruleid INT,"
      "                         ruletext VARCHAR);"
      "CREATE TABLE reachablepreds (frompredname VARCHAR,"
      "                             topredname VARCHAR);"
      "CREATE TABLE edbrel (predname VARCHAR, arity INT);"
      "CREATE TABLE edbcol (predname VARCHAR, colnum INT, coltype VARCHAR);"
      "CREATE INDEX rulesource_head_ix ON rulesource (headpredname);"
      "CREATE INDEX reachable_from_ix ON reachablepreds (frompredname);"
      "CREATE INDEX reachable_to_ix ON reachablepreds (topredname);"
      "CREATE INDEX idbrel_ix ON idbrel (predname);"
      "CREATE INDEX idbcol_ix ON idbcol (predname);"
      "CREATE INDEX edbrel_ix ON edbrel (predname);"
      "CREATE INDEX edbcol_ix ON edbcol (predname);"));
  return Status::OK();
}

Status StoredDkb::RestoreFromDatabase() {
  for (const char* required : {"edbrel", "rulesource", "reachablepreds"}) {
    if (!db_->catalog().HasTable(required)) {
      return Status::InvalidArgument(
          std::string("database is missing stored-DKB relation ") + required);
    }
  }
  base_preds_.clear();
  DKB_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                       db_->QueryRows("SELECT predname FROM edbrel"));
  for (const Tuple& row : rows) base_preds_.insert(row[0].as_string());
  DKB_ASSIGN_OR_RETURN(std::vector<Tuple> ids,
                       db_->QueryRows("SELECT ruleid FROM rulesource"));
  next_rule_id_ = 1;
  for (const Tuple& row : ids) {
    next_rule_id_ = std::max(next_rule_id_, row[0].as_int() + 1);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Extensional database
// ---------------------------------------------------------------------------

Status StoredDkb::DefineBasePredicate(const std::string& pred,
                                      const PredicateTypes& types) {
  DKB_RETURN_IF_ERROR(CheckNewBasePredicate(pred));
  std::string ddl = "CREATE TABLE " + EdbTableName(pred) + " (";
  for (size_t i = 0; i < types.size(); ++i) {
    if (i > 0) ddl += ", ";
    ddl += IdbColumnName(i);
    ddl += types[i] == DataType::kInteger ? " INT" : " VARCHAR";
  }
  ddl += ")";
  DKB_RETURN_IF_ERROR(db_->Execute(ddl).status());
  if (options_.index_edb_first_column && !types.empty()) {
    DKB_RETURN_IF_ERROR(
        db_->Execute("CREATE INDEX " + EdbTableName(pred) + "_c0_ix ON " +
                     EdbTableName(pred) + " (c0)")
            .status());
  }
  DKB_RETURN_IF_ERROR(
      db_->Execute("INSERT INTO edbrel VALUES (" +
                   Value(pred).ToSqlLiteral() + ", " +
                   std::to_string(types.size()) + ")")
          .status());
  for (size_t i = 0; i < types.size(); ++i) {
    DKB_RETURN_IF_ERROR(
        db_->Execute("INSERT INTO edbcol VALUES (" +
                     Value(pred).ToSqlLiteral() + ", " + std::to_string(i) +
                     ", '" + TypeToDict(types[i]) + "')")
            .status());
  }
  base_preds_.insert(pred);
  return Status::OK();
}

bool StoredDkb::HasBasePredicate(const std::string& pred) const {
  return base_preds_.count(pred) > 0;
}

Status StoredDkb::InsertFacts(const std::string& pred,
                              const std::vector<Tuple>& tuples) {
  DKB_RETURN_IF_ERROR(CheckFacts(pred, tuples));
  DKB_ASSIGN_OR_RETURN(ScanSource * table,
                       db_->catalog().GetSource(EdbTableName(pred)));
  RowBatch batch;
  batch.Reset(table->schema().num_columns());
  for (const Tuple& t : tuples) {
    batch.AppendRow(t);
    if (batch.full()) {
      DKB_RETURN_IF_ERROR(table->AppendBatch(batch));
      batch.Reset(table->schema().num_columns());
    }
  }
  if (!batch.empty()) DKB_RETURN_IF_ERROR(table->AppendBatch(batch));
  return Status::OK();
}

Status StoredDkb::CheckFacts(const std::string& pred,
                             const std::vector<Tuple>& tuples) const {
  if (!HasBasePredicate(pred)) {
    return Status::NotFound("base predicate " + pred + " is not defined");
  }
  DKB_ASSIGN_OR_RETURN(ScanSource * table,
                       db_->catalog().GetSource(EdbTableName(pred)));
  const Schema& schema = table->schema();
  for (size_t r = 0; r < tuples.size(); ++r) {
    const Tuple& row = tuples[r];
    if (row.size() != schema.num_columns()) {
      return Status::InvalidArgument(
          "fact " + std::to_string(r + 1) + " for " + pred + " has arity " +
          std::to_string(row.size()) + ", base predicate arity " +
          std::to_string(schema.num_columns()));
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].is_null() || row[i].type() == schema.column(i).type) {
        continue;
      }
      return Status::TypeError(
          "fact " + std::to_string(r + 1) + " for " + pred + ": column " +
          schema.column(i).name + " of " + table->name() + " expects " +
          DataTypeName(schema.column(i).type) + " but got " +
          DataTypeName(row[i].type()));
    }
  }
  return Status::OK();
}

Status StoredDkb::CheckNewBasePredicate(const std::string& pred) {
  if (HasBasePredicate(pred)) {
    return Status::AlreadyExists("base predicate " + pred +
                                 " already defined");
  }
  if (db_->catalog().HasTable(EdbTableName(pred))) {
    return Status::AlreadyExists("table " + EdbTableName(pred) +
                                 " already exists");
  }
  // Facts of a derived predicate would sit beside its rules and never
  // answer a query.
  if (!select_idb_pred_.valid()) {
    DKB_ASSIGN_OR_RETURN(
        select_idb_pred_,
        db_->Prepare("SELECT arity FROM idbrel WHERE predname = ?"));
  }
  DKB_RETURN_IF_ERROR(select_idb_pred_.Bind(0, Value(pred)));
  DKB_ASSIGN_OR_RETURN(QueryResult derived, select_idb_pred_.Execute());
  if (!derived.rows.empty()) {
    return Status::AlreadyExists("predicate " + pred +
                                 " is derived by stored rules");
  }
  return Status::OK();
}

Status StoredDkb::ClearFacts(const std::string& pred) {
  if (!HasBasePredicate(pred)) {
    return Status::NotFound("base predicate " + pred + " is not defined");
  }
  DKB_ASSIGN_OR_RETURN(ScanSource * table,
                       db_->catalog().GetSource(EdbTableName(pred)));
  table->Clear();
  return Status::OK();
}

Result<std::map<std::string, PredicateTypes>> StoredDkb::ReadEdbDictionary(
    const std::set<std::string>& preds) {
  std::map<std::string, PredicateTypes> out;
  if (preds.empty()) return out;
  // Single dictionary join, exactly as the testbed issues it (Test 2).
  DKB_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      db_->QueryRows(
          "SELECT edbrel.predname, edbcol.colnum, edbcol.coltype "
          "FROM edbrel, edbcol WHERE edbrel.predname = edbcol.predname "
          "AND edbrel.predname IN (" +
          QuoteList(preds) + ") ORDER BY 1, 2"));
  for (const Tuple& row : rows) {
    DKB_ASSIGN_OR_RETURN(DataType t, DictToType(row[2].as_string()));
    out[row[0].as_string()].push_back(t);
  }
  return out;
}

Result<std::map<std::string, PredicateTypes>> StoredDkb::ReadIdbDictionary(
    const std::set<std::string>& preds) {
  std::map<std::string, PredicateTypes> out;
  if (preds.empty()) return out;
  DKB_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      db_->QueryRows(
          "SELECT idbrel.predname, idbcol.colnum, idbcol.coltype "
          "FROM idbrel, idbcol WHERE idbrel.predname = idbcol.predname "
          "AND idbrel.predname IN (" +
          QuoteList(preds) + ") ORDER BY 1, 2"));
  for (const Tuple& row : rows) {
    DKB_ASSIGN_OR_RETURN(DataType t, DictToType(row[2].as_string()));
    out[row[0].as_string()].push_back(t);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Intensional database
// ---------------------------------------------------------------------------

Result<std::vector<datalog::Rule>> StoredDkb::ExtractRelevantRules(
    const std::set<std::string>& preds) {
  std::vector<datalog::Rule> rules;
  std::set<std::string> seen_texts;
  auto add_rows = [&](const std::vector<Tuple>& rows) -> Status {
    for (const Tuple& row : rows) {
      const std::string& text = row[0].as_string();
      if (!seen_texts.insert(text).second) continue;
      DKB_ASSIGN_OR_RETURN(datalog::Rule rule, datalog::ParseRule(text));
      rules.push_back(std::move(rule));
    }
    return Status::OK();
  };

  if (preds.empty()) return rules;

  if (options_.compiled_rule_storage) {
    // The paper's extraction query (§4.1): rules whose head is one of the
    // query predicates or reachable from one, in a single indexed join.
    std::string in_list = QuoteList(preds);
    DKB_ASSIGN_OR_RETURN(
        std::vector<Tuple> rows,
        db_->QueryRows(
            "SELECT DISTINCT rulesource.ruletext "
            "FROM reachablepreds, rulesource "
            "WHERE reachablepreds.topredname = rulesource.headpredname "
            "AND reachablepreds.frompredname IN (" + in_list + ") "
            "UNION "
            "SELECT ruletext FROM rulesource WHERE headpredname IN (" +
            in_list + ")"));
    DKB_RETURN_IF_ERROR(add_rows(rows));
    return rules;
  }

  // Without the compiled form the transitive closure must be walked at
  // extraction time: one rulesource query per frontier level.
  std::set<std::string> visited = preds;
  std::set<std::string> frontier = preds;
  while (!frontier.empty()) {
    DKB_ASSIGN_OR_RETURN(
        std::vector<Tuple> rows,
        db_->QueryRows("SELECT ruletext FROM rulesource "
                       "WHERE headpredname IN (" +
                       QuoteList(frontier) + ")"));
    size_t before = rules.size();
    DKB_RETURN_IF_ERROR(add_rows(rows));
    frontier.clear();
    for (size_t i = before; i < rules.size(); ++i) {
      for (const datalog::Atom& atom : rules[i].body) {
        if (visited.insert(atom.predicate).second) {
          frontier.insert(atom.predicate);
        }
      }
    }
  }
  return rules;
}

Result<bool> StoredDkb::StoreRuleSource(const datalog::Rule& rule) {
  // The dictionary lookup and insert run once per rule in every
  // UpdateStoredDkb, so they are kept as bound prepared statements instead
  // of re-deriving SQL text (and re-parsing it) from each rule.
  if (!select_rule_by_head_.valid()) {
    DKB_ASSIGN_OR_RETURN(
        select_rule_by_head_,
        db_->Prepare("SELECT ruletext FROM rulesource WHERE headpredname = ?"));
    DKB_ASSIGN_OR_RETURN(insert_rule_,
                         db_->Prepare("INSERT INTO rulesource VALUES (?, ?, ?)"));
  }
  std::string text = rule.ToString();
  DKB_RETURN_IF_ERROR(select_rule_by_head_.Bind(0, Value(rule.head.predicate)));
  DKB_ASSIGN_OR_RETURN(QueryResult existing, select_rule_by_head_.Execute());
  for (const Tuple& row : existing.rows) {
    if (row[0].as_string() == text) return false;
  }
  DKB_RETURN_IF_ERROR(insert_rule_.Bind(0, Value(rule.head.predicate)));
  DKB_RETURN_IF_ERROR(insert_rule_.Bind(1, Value(next_rule_id_++)));
  DKB_RETURN_IF_ERROR(insert_rule_.Bind(2, Value(std::move(text))));
  DKB_RETURN_IF_ERROR(insert_rule_.Execute().status());
  return true;
}

Result<int64_t> StoredDkb::NumStoredRules() {
  return db_->QueryCount("SELECT COUNT(*) FROM rulesource");
}

Status StoredDkb::UpsertIdbDictionaryBatch(
    const std::map<std::string, PredicateTypes>& preds) {
  if (preds.empty()) return Status::OK();
  std::set<std::string> names;
  for (const auto& [pred, sig] : preds) {
    (void)sig;
    names.insert(pred);
  }
  std::string in_list = QuoteList(names);
  DKB_RETURN_IF_ERROR(
      db_->Execute("DELETE FROM idbrel WHERE predname IN (" + in_list + ")")
          .status());
  DKB_RETURN_IF_ERROR(
      db_->Execute("DELETE FROM idbcol WHERE predname IN (" + in_list + ")")
          .status());
  std::string rel_sql = "INSERT INTO idbrel VALUES ";
  std::string col_sql = "INSERT INTO idbcol VALUES ";
  bool first_rel = true;
  bool first_col = true;
  for (const auto& [pred, sig] : preds) {
    std::string lit = Value(pred).ToSqlLiteral();
    if (!first_rel) rel_sql += ", ";
    first_rel = false;
    rel_sql += "(" + lit + ", " + std::to_string(sig.size()) + ")";
    for (size_t i = 0; i < sig.size(); ++i) {
      if (!first_col) col_sql += ", ";
      first_col = false;
      col_sql += "(" + lit + ", " + std::to_string(i) + ", '" +
                 TypeToDict(sig[i]) + "')";
    }
  }
  DKB_RETURN_IF_ERROR(db_->Execute(rel_sql).status());
  if (!first_col) DKB_RETURN_IF_ERROR(db_->Execute(col_sql).status());
  return Status::OK();
}

Status StoredDkb::MergeReachableBatch(
    const std::map<std::string, std::set<std::string>>& pairs) {
  if (pairs.empty()) return Status::OK();
  std::set<std::string> froms;
  for (const auto& [from, tos] : pairs) {
    (void)tos;
    froms.insert(from);
  }
  DKB_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      db_->QueryRows("SELECT frompredname, topredname FROM reachablepreds "
                     "WHERE frompredname IN (" +
                     QuoteList(froms) + ")"));
  std::set<std::pair<std::string, std::string>> existing;
  for (const Tuple& row : rows) {
    existing.emplace(row[0].as_string(), row[1].as_string());
  }
  std::string sql = "INSERT INTO reachablepreds VALUES ";
  bool first = true;
  for (const auto& [from, tos] : pairs) {
    for (const std::string& to : tos) {
      if (existing.count({from, to}) > 0) continue;
      if (!first) sql += ", ";
      first = false;
      sql += "(" + Value(from).ToSqlLiteral() + ", " +
             Value(to).ToSqlLiteral() + ")";
    }
  }
  if (first) return Status::OK();  // nothing new
  return db_->Execute(sql).status();
}

Result<std::set<std::string>> StoredDkb::StoredUpstream(
    const std::set<std::string>& preds) {
  std::set<std::string> out;
  if (preds.empty()) return out;
  DKB_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      db_->QueryRows(
          "SELECT DISTINCT frompredname FROM reachablepreds "
          "WHERE topredname IN (" +
          QuoteList(preds) + ")"));
  for (const Tuple& row : rows) out.insert(row[0].as_string());
  return out;
}

Result<std::vector<datalog::Rule>> StoredDkb::RulesForHeads(
    const std::set<std::string>& preds) {
  std::vector<datalog::Rule> rules;
  if (preds.empty()) return rules;
  DKB_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      db_->QueryRows("SELECT ruletext FROM rulesource WHERE headpredname IN (" +
                     QuoteList(preds) + ")"));
  for (const Tuple& row : rows) {
    DKB_ASSIGN_OR_RETURN(datalog::Rule rule,
                         datalog::ParseRule(row[0].as_string()));
    rules.push_back(std::move(rule));
  }
  return rules;
}

Result<std::set<std::string>> StoredDkb::StoredReachable(
    const std::set<std::string>& preds) {
  std::set<std::string> out;
  if (preds.empty()) return out;
  DKB_ASSIGN_OR_RETURN(
      std::vector<Tuple> rows,
      db_->QueryRows(
          "SELECT DISTINCT topredname FROM reachablepreds "
          "WHERE frompredname IN (" +
          QuoteList(preds) + ")"));
  for (const Tuple& row : rows) out.insert(row[0].as_string());
  return out;
}

}  // namespace dkb::km
