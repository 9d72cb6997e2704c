#include "report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "common/str_util.h"
#include "common/thread_pool.h"

#ifndef DKB_GIT_DESCRIBE
#define DKB_GIT_DESCRIBE "unknown"
#endif

namespace dkb::bench {
namespace {

const char* UnitName(Unit unit) {
  switch (unit) {
    case Unit::kText: return "text";
    case Unit::kCount: return "count";
    case Unit::kMicros: return "us";
    case Unit::kRatio: return "ratio";
    case Unit::kPercent: return "%";
  }
  return "?";
}

std::string FormatCell(const Column& column, const Cell& cell) {
  const double v = cell.number;
  char buf[64];
  switch (column.unit) {
    case Unit::kText:
      return cell.text;
    case Unit::kCount:
      std::snprintf(buf, sizeof(buf), "%.0f", v);
      break;
    case Unit::kMicros:
      if (v >= 1e6) {
        std::snprintf(buf, sizeof(buf), "%.2f s", v / 1e6);
      } else if (v >= 1e3) {
        std::snprintf(buf, sizeof(buf), "%.2f ms", v / 1e3);
      } else {
        std::snprintf(buf, sizeof(buf), "%.*f us", column.digits, v);
      }
      break;
    case Unit::kRatio:
      std::snprintf(buf, sizeof(buf), "%.*f", column.digits, v);
      break;
    case Unit::kPercent:
      std::snprintf(buf, sizeof(buf), "%.*f%%", column.digits, v * 100.0);
      break;
  }
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

/// A cell as a JSON value: a string for text, a number in the column's
/// unit otherwise, and null when the number is not finite (a ratio over a
/// zero denominator).
std::string JsonCell(const Column& column, const Cell& cell) {
  if (column.unit == Unit::kText) return JsonString(cell.text);
  const double v =
      column.unit == Unit::kPercent ? cell.number * 100.0 : cell.number;
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Minimal JSON syntax checker (objects, arrays, strings with escapes,
/// numbers, booleans, null): the suite file must parse before it is
/// written, so an escaping bug fails the run, not a later plotting script.
class JsonValidator {
 public:
  static bool Validate(const std::string& text, std::string* error) {
    JsonValidator v(text);
    v.SkipWs();
    if (!v.Value()) {
      if (error != nullptr) {
        *error = "JSON syntax error near offset " + std::to_string(v.pos_);
      }
      return false;
    }
    v.SkipWs();
    if (v.pos_ != text.size()) {
      if (error != nullptr) {
        *error = "trailing garbage at offset " + std::to_string(v.pos_);
      }
      return false;
    }
    return true;
  }

 private:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) return false;
            ++pos_;
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Eat('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }
  bool Object() {
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      if (!Value()) return false;
      SkipWs();
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }
  bool Array() {
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

void Table::Row(std::vector<Cell> cells) {
  bool matches = cells.size() == columns_.size();
  for (size_t c = 0; matches && c < cells.size(); ++c) {
    matches = cells[c].is_text == (columns_[c].unit == Unit::kText);
  }
  if (!matches) {
    CheckOk(Status::Internal("row " + std::to_string(rows_.size()) +
                             " does not match the columns of table \"" +
                             columns_.front().name + "...\""),
            "Table::Row");
  }
  rows_.push_back(std::move(cells));
}

void Report::Banner(std::string title, std::string paper_ref,
                    std::string expectation) {
  title_ = std::move(title);
  paper_ref_ = std::move(paper_ref);
  expectation_ = std::move(expectation);
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title_.c_str());
  std::printf("Paper reference: %s\n", paper_ref_.c_str());
  std::printf("Paper-shape expectation: %s\n", expectation_.c_str());
  std::printf("=============================================================\n\n");
}

void Report::Add(Table table) {
  if (!table.caption_.empty()) std::printf("%s\n\n", table.caption_.c_str());
  std::vector<std::vector<std::string>> text;
  text.emplace_back();
  for (const Column& column : table.columns_) text.back().push_back(column.name);
  for (const auto& row : table.rows_) {
    text.emplace_back();
    for (size_t c = 0; c < row.size(); ++c) {
      text.back().push_back(FormatCell(table.columns_[c], row[c]));
    }
  }
  std::vector<size_t> widths(table.columns_.size(), 0);
  for (const auto& row : text) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (size_t r = 0; r < text.size(); ++r) {
    for (size_t c = 0; c < text[r].size(); ++c) {
      std::printf("  %-*s", static_cast<int>(widths[c]), text[r][c].c_str());
    }
    std::printf("\n");
    if (r == 0) {
      std::string rule;
      for (size_t width : widths) rule += std::string(width, '-') + "  ";
      std::printf("  %s\n", rule.c_str());
    }
  }
  std::printf("\n");
  tables_.push_back(std::move(table));
}

void Report::Value(Column column, Cell value) {
  std::printf("  %s: %s\n", column.name.c_str(),
              FormatCell(column, value).c_str());
  values_.emplace_back(std::move(column), std::move(value));
}

std::string Report::Json() const {
  std::string out = "{\"bench\": " + JsonString(name_) +
                    ",\n     \"title\": " + JsonString(title_) +
                    ",\n     \"paper_ref\": " + JsonString(paper_ref_) +
                    ",\n     \"expectation\": " + JsonString(expectation_) +
                    ",\n     \"tables\": [";
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = tables_[t];
    std::string headers;
    std::string units;
    for (size_t c = 0; c < table.columns_.size(); ++c) {
      if (c > 0) {
        headers += ", ";
        units += ", ";
      }
      headers += JsonString(table.columns_[c].name);
      units += JsonString(UnitName(table.columns_[c].unit));
    }
    out += t ? ",\n       " : "\n       ";
    out += "{\"caption\": " + JsonString(table.caption_) + ", \"headers\": [" +
           headers + "], \"units\": [" + units + "], \"rows\": [";
    for (size_t r = 0; r < table.rows_.size(); ++r) {
      out += r ? ",\n         [" : "\n         [";
      for (size_t c = 0; c < table.rows_[r].size(); ++c) {
        if (c > 0) out += ", ";
        out += JsonCell(table.columns_[c], table.rows_[r][c]);
      }
      out += "]";
    }
    out += "]}";
  }
  out += "],\n     \"values\": {";
  for (size_t i = 0; i < values_.size(); ++i) {
    const auto& [column, value] = values_[i];
    if (i > 0) out += ", ";
    out += JsonString(column.name) + ": {\"unit\": " +
           JsonString(UnitName(column.unit)) +
           ", \"value\": " + JsonCell(column, value) + "}";
  }
  out += "}}";
  return out;
}

Status WriteSuiteJson(const std::string& path,
                      const std::vector<Report>& reports) {
  const char* threads_env = std::getenv("DKB_THREADS");
  std::string text = "{\n";
  text += "  \"schema_version\": " + std::to_string(kBenchJsonSchemaVersion) +
          ",\n";
  text += std::string("  \"smoke\": ") + (SmokeMode() ? "true" : "false") +
          ",\n";
  text += "  \"hardware_threads\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  text += "  \"pool_threads\": " +
          std::to_string(GlobalThreadPool().num_threads()) + ",\n";
  text += "  \"dkb_threads_env\": " +
          JsonString(threads_env == nullptr ? "" : threads_env) + ",\n";
  text += "  \"git_describe\": " + JsonString(DKB_GIT_DESCRIBE) + ",\n";
  text += "  \"benches\": [";
  for (size_t i = 0; i < reports.size(); ++i) {
    text += (i ? ",\n    " : "\n    ") + reports[i].Json();
  }
  text += "\n  ]\n}\n";

  std::string error;
  if (!JsonValidator::Validate(text, &error)) {
    return Status::Internal(path + " would not parse: " + error);
  }
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), out);
  const bool closed = std::fclose(out) == 0;
  if (written != text.size() || !closed) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

}  // namespace dkb::bench
