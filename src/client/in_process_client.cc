#include "client/in_process_client.h"

#include <utility>

#include "datalog/parser.h"
#include "net/convert.h"

namespace dkb {

Result<std::unique_ptr<InProcessClient>> InProcessClient::Create(
    testbed::TestbedOptions options) {
  DKB_ASSIGN_OR_RETURN(std::unique_ptr<testbed::Testbed> testbed,
                       testbed::Testbed::Create(std::move(options)));
  auto client = std::make_unique<InProcessClient>(testbed.get());
  client->owned_ = std::move(testbed);
  return client;
}

Status InProcessClient::Consult(const std::string& program_text) {
  return testbed_->Consult(program_text);
}

Status InProcessClient::AddRule(const std::string& rule_text) {
  return testbed_->AddRule(rule_text);
}

Status InProcessClient::RetractRule(const std::string& rule_text) {
  return testbed_->RetractRule(rule_text);
}

Status InProcessClient::DefineBase(const std::string& pred,
                                   const std::vector<DataType>& types) {
  return testbed_->DefineBase(pred, types);
}

Status InProcessClient::AddFacts(const std::string& pred,
                                 const std::vector<Tuple>& rows) {
  return testbed_->AddFacts(pred, rows);
}

Result<QueryResultSet> InProcessClient::Query(
    const std::string& goal_text, const testbed::QueryOptions& options,
    uint8_t report_formats) {
  DKB_ASSIGN_OR_RETURN(testbed::QueryOutcome outcome,
                       testbed_->Query(goal_text, options));
  return net::ResultSetFromOutcome(std::move(outcome), report_formats);
}

Result<std::vector<QueryResultSet>> InProcessClient::QueryBatch(
    const std::vector<std::string>& goals,
    const testbed::QueryOptions& options, uint8_t report_formats) {
  std::vector<QueryResultSet> out;
  out.reserve(goals.size());
  for (const std::string& goal : goals) {
    DKB_ASSIGN_OR_RETURN(QueryResultSet rs,
                         Query(goal, options, report_formats));
    out.push_back(std::move(rs));
  }
  return out;
}

Result<StatementId> InProcessClient::Prepare(
    const std::string& goal_text, const testbed::QueryOptions& options) {
  // Parse now so a bad goal fails at Prepare, matching the server's
  // behavior, rather than on the first Execute.
  DKB_ASSIGN_OR_RETURN(datalog::Atom goal, datalog::ParseQuery(goal_text));
  (void)goal;
  StatementId id = next_statement_id_++;
  prepared_[id] = PreparedStatement{goal_text, options};
  return id;
}

Result<std::vector<QueryResultSet>> InProcessClient::Execute(
    const std::vector<StatementId>& statements) {
  std::vector<QueryResultSet> out;
  out.reserve(statements.size());
  for (StatementId id : statements) {
    auto it = prepared_.find(id);
    if (it == prepared_.end()) {
      return Status::NotFound("no prepared statement with id " +
                              std::to_string(id));
    }
    DKB_ASSIGN_OR_RETURN(
        QueryResultSet rs,
        Query(it->second.goal, it->second.options, net::kReportNone));
    out.push_back(std::move(rs));
  }
  return out;
}

Result<QueryResultSet> InProcessClient::ExecuteSql(
    const std::string& statement) {
  DKB_ASSIGN_OR_RETURN(exec::QueryResult result,
                       testbed_->ExecuteSql(statement));
  QueryResultSet rs;
  rs.schema = std::move(result.schema);
  rs.rows = std::move(result.rows);
  rs.rows_affected = result.rows_affected;
  return rs;
}

Result<UpdateStoredStats> InProcessClient::UpdateStoredDkb() {
  DKB_ASSIGN_OR_RETURN(km::UpdateStats stats, testbed_->UpdateStoredDkb());
  UpdateStoredStats out;
  out.rules_stored = stats.rules_stored;
  out.total_us = stats.total_us();
  return out;
}

Status InProcessClient::ClearWorkspace() {
  return testbed_->ClearWorkspace();
}

Result<std::vector<std::string>> InProcessClient::ListRules() {
  return testbed_->ListRuleTexts();
}

}  // namespace dkb
