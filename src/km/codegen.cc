#include "km/codegen.h"

#include <set>

#include "common/str_util.h"
#include "km/naming.h"

namespace dkb::km {

namespace {

PredicateBinding MakeBinding(const std::string& pred,
                             const PredicateTypes& types, bool is_base) {
  PredicateBinding b;
  b.pred = pred;
  b.table = is_base ? EdbTableName(pred) : IdbTableName(pred);
  b.types = types;
  b.is_base = is_base;
  for (size_t i = 0; i < types.size(); ++i) {
    b.columns.push_back(IdbColumnName(i));
  }
  return b;
}

/// Fills node->variants: for every recursive rule of the clique `node`
/// (the program's node `node_index`) and every clique member in its body,
/// the variant reading the delta at that position. Negated atoms are never
/// clique members (stratification), so they keep their stored relation.
Status GenerateVariants(const QueryProgram& program, size_t node_index,
                        ProgramNode* node) {
  const std::set<std::string> members(node->predicates.begin(),
                                      node->predicates.end());
  const std::string prefix = "#n" + std::to_string(node_index) + "sr";
  for (size_t r = 0; r < node->recursive_rules.size(); ++r) {
    const datalog::Rule& rule = node->recursive_rules[r];
    for (size_t delta_pos = 0; delta_pos < rule.body.size(); ++delta_pos) {
      const datalog::Atom& atom = rule.body[delta_pos];
      if (atom.negated || members.count(atom.predicate) == 0) continue;
      BindingResolver resolver =
          [&program, &members, delta_pos](
              const datalog::Atom& a,
              size_t body_index) -> Result<RelationBinding> {
        auto it = program.bindings.find(a.predicate);
        if (it == program.bindings.end()) {
          return Status::Internal("no binding for " + a.predicate);
        }
        RelationBinding binding = it->second.AsRelation();
        if (members.count(a.predicate) == 0) return binding;
        if (body_index == delta_pos) {
          binding.table = DeltaTableName(a.predicate);
        } else if (body_index > delta_pos) {
          binding.table = PrevTableName(a.predicate);
        }
        // body_index < delta_pos keeps the current full relation.
        return binding;
      };
      RuleVariant variant;
      variant.rule = r;
      variant.delta_pos = delta_pos;
      DKB_ASSIGN_OR_RETURN(
          variant.sql,
          RuleToSqlProgram(rule, resolver, /*target_table=*/"",
                           prefix + std::to_string(r + 1) + "_" +
                               std::to_string(delta_pos)));
      node->variants.push_back(std::move(variant));
    }
  }
  return Status::OK();
}

}  // namespace

std::string ProgramNode::Label() const { return StrJoin(predicates, ","); }

Schema PredicateBinding::RelationSchema() const {
  std::vector<Column> out;
  out.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    out.push_back({columns[i], types[i]});
  }
  return Schema(std::move(out));
}

std::vector<std::string> QueryProgram::AllSqlTexts() const {
  std::vector<std::string> out;
  for (const ProgramNode& node : nodes) {
    for (const CompiledRule& cr : node.exit_rules) {
      if (!cr.select_sql.empty()) out.push_back(cr.select_sql);
      if (cr.rule.body.empty()) {
        out.push_back(SeedInsertSql(
            cr.rule, bindings.at(cr.rule.head.predicate).table));
      }
    }
    for (const RuleVariant& variant : node.variants) {
      out.insert(out.end(), variant.sql.statements.begin(),
                 variant.sql.statements.end());
    }
  }
  if (!final_select.empty()) out.push_back(final_select);
  return out;
}

Result<QueryProgram> GenerateProgram(
    const EvaluationOrder& order,
    const std::map<std::string, PredicateTypes>& derived_types,
    const std::map<std::string, PredicateTypes>& base_types,
    const datalog::Atom& query) {
  QueryProgram program;
  program.query = query;

  // Bindings: base predicates referenced by rules plus (possibly) the query
  // predicate itself; derived predicates from the evaluation order.
  for (const std::string& pred : order.base_predicates) {
    auto it = base_types.find(pred);
    if (it == base_types.end()) {
      return Status::SemanticError("predicate " + pred +
                                   " is neither defined by rules nor a "
                                   "known base predicate");
    }
    program.bindings.emplace(pred, MakeBinding(pred, it->second, true));
  }
  for (const std::string& pred : order.derived_predicates) {
    auto it = derived_types.find(pred);
    if (it == derived_types.end()) {
      return Status::Internal("no inferred types for derived predicate " +
                              pred);
    }
    program.bindings.emplace(pred, MakeBinding(pred, it->second, false));
  }
  if (program.bindings.count(query.predicate) == 0) {
    auto it = base_types.find(query.predicate);
    if (it == base_types.end()) {
      return Status::SemanticError("query predicate " + query.predicate +
                                   " is neither defined by rules nor a "
                                   "known base predicate");
    }
    program.bindings.emplace(query.predicate,
                             MakeBinding(query.predicate, it->second, true));
  }

  // Resolver used for exit/non-recursive rule SQL: every predicate maps to
  // its canonical relation.
  BindingResolver canonical = [&program](const datalog::Atom& atom,
                                         size_t) -> Result<RelationBinding> {
    auto it = program.bindings.find(atom.predicate);
    if (it == program.bindings.end()) {
      return Status::Internal("no binding for predicate " + atom.predicate);
    }
    return it->second.AsRelation();
  };

  for (const EvalNode& eval_node : order.nodes) {
    ProgramNode node;
    node.is_clique = eval_node.kind == EvalNode::Kind::kClique;
    const std::vector<datalog::Rule>* flat_rules = nullptr;
    if (node.is_clique) {
      node.predicates = eval_node.clique.predicates;
      node.recursive_rules = eval_node.clique.recursive_rules;
      flat_rules = &eval_node.clique.exit_rules;
    } else {
      node.predicates = {eval_node.predicate};
      flat_rules = &eval_node.rules;
    }
    for (const datalog::Rule& rule : *flat_rules) {
      if (rule.body.empty() && QueryParameters(query) !=
                                   QueryParameters(rule.head)) {
        return Status::Internal("seed " + rule.ToString() +
                                " does not bind the constants of " +
                                query.ToString());
      }
      CompiledRule cr;
      cr.rule = rule;
      bool has_negation = false;
      for (const datalog::Atom& atom : rule.body) {
        if (atom.negated) has_negation = true;
      }
      if (rule.body.empty() || has_negation) {
        // Seed facts get a VALUES insert; negated rules go through the
        // run-time binding-table pipeline. Both signal via empty SQL.
        cr.select_sql = "";
      } else {
        DKB_ASSIGN_OR_RETURN(cr.select_sql, RuleToSelect(rule, canonical));
      }
      node.exit_rules.push_back(std::move(cr));
    }
    if (node.is_clique) {
      DKB_RETURN_IF_ERROR(
          GenerateVariants(program, program.nodes.size(), &node));
    }
    program.nodes.push_back(std::move(node));
  }

  DKB_RETURN_IF_ERROR(GenerateFinalSelect(query, &program));
  return program;
}

Status GenerateFinalSelect(const datalog::Atom& query,
                           QueryProgram* program) {
  auto binding = program->bindings.find(query.predicate);
  if (binding == program->bindings.end()) {
    return Status::Internal("no binding for query predicate " +
                            query.predicate);
  }
  const PredicateBinding& qb = binding->second;
  if (query.arity() != qb.types.size()) {
    return Status::SemanticError(
        "query " + query.ToString() + " has arity " +
        std::to_string(query.arity()) + " but predicate " + query.predicate +
        " has arity " + std::to_string(qb.types.size()));
  }
  program->answer_columns.clear();
  program->boolean_query = false;
  std::vector<std::string> projections;
  std::vector<std::string> conjuncts;
  std::map<std::string, std::string> var_cols;  // variable -> first column
  for (size_t i = 0; i < query.args.size(); ++i) {
    const datalog::Term& t = query.args[i];
    if (t.is_constant()) {
      if (t.value.type() != qb.types[i]) {
        return Status::TypeError("query constant " + t.ToString() +
                                 " does not match column type " +
                                 std::string(DataTypeName(qb.types[i])) +
                                 " of " + query.predicate);
      }
      conjuncts.push_back(qb.columns[i] + " = ?");
      continue;
    }
    auto [it, inserted] = var_cols.emplace(t.var, qb.columns[i]);
    if (inserted) {
      projections.push_back(qb.columns[i] + " AS " + t.var);
      program->answer_columns.push_back(t.var);
    } else {
      conjuncts.push_back(qb.columns[i] + " = " + it->second);
    }
  }
  std::string select;
  if (projections.empty()) {
    program->boolean_query = true;
    select = "SELECT COUNT(*) FROM " + qb.table;
  } else {
    select = "SELECT DISTINCT ";
    for (size_t i = 0; i < projections.size(); ++i) {
      if (i > 0) select += ", ";
      select += projections[i];
    }
    select += " FROM " + qb.table;
  }
  if (!conjuncts.empty()) {
    select += " WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) select += " AND ";
      select += conjuncts[i];
    }
  }
  program->final_select = std::move(select);
  return Status::OK();
}

std::vector<Value> QueryParameters(const datalog::Atom& query) {
  std::vector<Value> out;
  for (const datalog::Term& t : query.args) {
    if (t.is_constant()) out.push_back(t.value);
  }
  return out;
}

std::string SeedInsertSql(const datalog::Rule& seed,
                          const std::string& table) {
  std::string sql = "INSERT INTO " + table + " VALUES (";
  for (size_t i = 0; i < seed.head.args.size(); ++i) {
    sql += i > 0 ? ", ?" : "?";
  }
  return sql + ")";
}

std::string InlineParameters(const std::string& sql,
                             const std::vector<Value>& values) {
  std::string out;
  size_t next = 0;
  bool quoted = false;
  for (char c : sql) {
    if (c == '\'') quoted = !quoted;
    if (c == '?' && !quoted && next < values.size()) {
      out += values[next++].ToSqlLiteral();
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace dkb::km
