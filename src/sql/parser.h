#ifndef DKB_SQL_PARSER_H_
#define DKB_SQL_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace dkb::sql {

/// The deepest expression the parser accepts. It bounds, along any path,
/// the NOTs and parentheses (the parser recurses once per each) and the
/// height of the expression tree, to which every link of an AND/OR chain
/// adds one level (later passes recurse over that left-deep tree). Deeper
/// input is rejected with InvalidArgument before anything recurses past
/// it. The Knowledge Manager's deepest WHERE has one conjunct per join
/// column, constant and comparison of a rule body: far below this.
inline constexpr size_t kMaxExpressionDepth = 1000;

/// Parses one SQL statement (a trailing ';' is allowed).
Result<StatementPtr> ParseStatement(const std::string& input);

/// Parses a ';'-separated script into a statement list.
Result<std::vector<StatementPtr>> ParseScript(const std::string& input);

/// Recursive-descent parser over the token stream. Exposed as a class so the
/// tests can exercise sub-grammars directly.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<StatementPtr> ParseSingleStatement();
  Result<std::vector<StatementPtr>> ParseStatements();

  /// Grammar entry points (public for tests).
  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt();
  Result<ExprPtr> ParseCondition();

 private:
  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();
  bool MatchKeyword(const char* kw);
  bool MatchSymbol(const char* sym);
  Status ExpectKeyword(const char* kw);
  Status ExpectSymbol(const char* sym);
  Status ErrorHere(const std::string& message) const;
  /// Opens one NOT/parenthesis level (closed with --nesting_ on success;
  /// a failed parse is abandoned whole, so error paths need not close).
  Status Nest();
  /// Rejects an expression tree taller than kMaxExpressionDepth.
  Status CheckHeight(size_t height) const;

  Result<StatementPtr> ParseCreate();
  Result<StatementPtr> ParseDrop();
  Result<StatementPtr> ParseInsert();
  Result<StatementPtr> ParseDelete();

  Result<std::unique_ptr<SelectCore>> ParseSelectCore();
  Result<SelectItem> ParseSelectItem();
  Result<ExprPtr> ParseAndChain();
  Result<ExprPtr> ParseNotExpr();
  Result<ExprPtr> ParsePrimaryCondition();
  Result<ExprPtr> ParseOperand();
  Result<Value> ParseLiteralValue();
  Result<DataType> ParseType();
  Result<std::string> ParseIdentifier(const char* what);
  /// True when the next token is an aggregate keyword (COUNT/SUM/MIN/MAX)
  /// used as a bare name, i.e. not followed by '('. Such tokens demote to
  /// ordinary lowercase column identifiers (sys.metrics exposes `sum`/`max`).
  bool IsBareAggregateName() const;
  /// `[schema.]name` — a plain identifier or a dotted two-part name, joined
  /// back with '.' (the reserved `sys` schema's views are addressed this
  /// way: `sys.query_log`).
  Result<std::string> ParseTableName(const char* what);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t param_count_ = 0;  // `?` placeholders seen in the current statement
  size_t nesting_ = 0;      // NOTs and parentheses open at the current token
  size_t height_ = 0;       // tree height of the last condition parsed
};

}  // namespace dkb::sql

#endif  // DKB_SQL_PARSER_H_
