#ifndef DKB_BENCH_REPORT_H_
#define DKB_BENCH_REPORT_H_

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dkb::bench {

/// Version of the BENCH_paper.json layout. Bump it when a field changes
/// shape or meaning, so scripts comparing result files can refuse to mix
/// generations. Version 3: one harness writes typed numbers, not strings.
constexpr int kBenchJsonSchemaVersion = 3;

/// What a cell measures. It decides how the cell prints and is written to
/// BENCH_paper.json as the column's unit.
enum class Unit { kText, kCount, kMicros, kRatio, kPercent };

/// A table column or a named value.
struct Column {
  std::string name;
  Unit unit = Unit::kText;
  /// Decimals printed: always for ratios and percentages, below one
  /// millisecond for microseconds.
  int digits = 0;
};

inline Column Text(std::string name) {
  return {std::move(name), Unit::kText, 0};
}
inline Column Count(std::string name) {
  return {std::move(name), Unit::kCount, 0};
}
/// Microseconds, printed in adaptive units ("850 us", "3.01 ms", "1.20 s").
inline Column Micros(std::string name, int digits = 0) {
  return {std::move(name), Unit::kMicros, digits};
}
inline Column Ratio(std::string name, int digits = 2) {
  return {std::move(name), Unit::kRatio, digits};
}
/// Takes a fraction; prints it and writes it as a percentage.
inline Column Percent(std::string name, int digits = 1) {
  return {std::move(name), Unit::kPercent, digits};
}

/// One cell: text under a kText column, a number under every other unit.
struct Cell {
  Cell(std::string s) : text(std::move(s)), is_text(true) {}
  Cell(const char* s) : text(s), is_text(true) {}
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  Cell(T v) : number(static_cast<double>(v)) {}

  std::string text;
  double number = 0;
  bool is_text = false;
};

/// Rows of typed cells under named columns, with an optional caption.
class Table {
 public:
  explicit Table(std::vector<Column> columns, std::string caption = "")
      : columns_(std::move(columns)), caption_(std::move(caption)) {}

  /// Appends a row; aborts the run if it does not match the columns in
  /// number and kind.
  void Row(std::vector<Cell> cells);

 private:
  friend class Report;

  std::vector<Column> columns_;
  std::string caption_;
  std::vector<std::vector<Cell>> rows_;
};

/// Everything one bench measured: its banner, tables and named values.
/// Each part prints to stdout as it is added, and WriteSuiteJson writes the
/// same cells to BENCH_paper.json.
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  /// The paper's test numbering: what is measured, where the paper reports
  /// it, and the shape the paper leads us to expect.
  void Banner(std::string title, std::string paper_ref,
              std::string expectation);
  void Add(Table table);
  /// A single result that is not a table row, e.g. Table 5's work ratio.
  void Value(Column column, Cell value);

  /// This bench's entry in the suite file.
  std::string Json() const;

 private:
  std::string name_;
  std::string title_;
  std::string paper_ref_;
  std::string expectation_;
  std::vector<Table> tables_;
  std::vector<std::pair<Column, Cell>> values_;
};

/// Renders the schema-versioned suite file for `reports` (with a header
/// naming the machine and build), checks that it parses, and writes it to
/// `path`.
Status WriteSuiteJson(const std::string& path,
                      const std::vector<Report>& reports);

}  // namespace dkb::bench

#endif  // DKB_BENCH_REPORT_H_
