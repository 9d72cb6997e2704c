#ifndef DKB_COMMON_VALUE_H_
#define DKB_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/interner.h"

namespace dkb {

/// Column data types supported by the relational engine. The 1988 testbed's
/// DBMS exposed `char` and `integer` columns (see the paper's dictionary
/// schemas); we match that surface.
enum class DataType : uint8_t {
  kInvalid = 0,
  kInteger,  // 64-bit signed
  kVarchar,  // variable-length string
};

/// Returns "INTEGER" / "VARCHAR" / "INVALID".
const char* DataTypeName(DataType type);

/// A single column value: NULL, integer, or string.
///
/// Strings come in two representations with identical observable semantics:
/// an owned std::string, or an interned reference (dense uint32 id) into the
/// process-wide StringDict. Interned values copy and hash in O(1) — copying
/// moves 4 bytes instead of a heap string, equality compares ids when both
/// sides are interned, and hashing reads the dictionary's precomputed
/// content hash (which agrees with hashing the same string un-interned, so
/// hash containers may mix both representations). Comparison, ordering,
/// rendering, and ToSqlLiteral are representation-blind.
///
/// Values are ordered and hashable so they can drive index keys, join keys,
/// and set operations. NULL compares equal to NULL and sorts first; that is
/// sufficient for the testbed, which never produces NULLs from Datalog
/// evaluation but allows them in raw SQL tables.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : rep_(std::monostate{}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}

  static Value Null() { return Value(); }

  /// An interned VARCHAR; falls back to the owned representation if the
  /// dictionary is full.
  static Value Interned(std::string_view s) {
    uint32_t id = GlobalStringDict().Intern(s);
    if (id == StringDict::kInvalidId) return Value(std::string(s));
    return Value(DictRef{id});
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }
  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_string() const {
    return std::holds_alternative<std::string>(rep_) || is_interned();
  }
  /// True only for the interned string representation.
  bool is_interned() const { return std::holds_alternative<DictRef>(rep_); }

  /// Type of this value; NULL reports kInvalid (untyped).
  DataType type() const {
    if (is_int()) return DataType::kInteger;
    if (is_string()) return DataType::kVarchar;
    return DataType::kInvalid;
  }

  /// Requires is_int().
  int64_t as_int() const { return std::get<int64_t>(rep_); }
  /// Requires is_string(). For interned values the reference points into
  /// the process-wide dictionary and is stable for the process lifetime.
  const std::string& as_string() const {
    if (const auto* ref = std::get_if<DictRef>(&rep_)) {
      return GlobalStringDict().Get(ref->id);
    }
    return std::get<std::string>(rep_);
  }
  /// Requires is_interned(): the dictionary id.
  uint32_t interned_id() const { return std::get<DictRef>(rep_).id; }

  /// Converts an owned VARCHAR to the interned representation in place
  /// (no-op for NULL, integers, and already-interned values). Storage does
  /// this on every insert so scans hand out cheap values.
  void InternInPlace() {
    if (const auto* s = std::get_if<std::string>(&rep_)) {
      uint32_t id = GlobalStringDict().Intern(*s);
      if (id != StringDict::kInvalidId) rep_ = DictRef{id};
    }
  }

  /// Like InternInPlace, but only adopts an id the dictionary already
  /// holds: a string no stored row carries stays inline and adds nothing to
  /// the dictionary. Equality and hashing do not see the difference.
  void InternIfKnown() {
    if (const auto* s = std::get_if<std::string>(&rep_)) {
      uint32_t id = GlobalStringDict().Find(*s);
      if (id != StringDict::kInvalidId) rep_ = DictRef{id};
    }
  }

  bool operator==(const Value& other) const {
    if (rep_.index() == other.rep_.index()) {
      // Same representation: interned compares ids (equal iff same string).
      return rep_ == other.rep_;
    }
    // Mixed representations are equal only if both are strings with the
    // same content.
    if (is_string() && other.is_string()) {
      return as_string() == other.as_string();
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// NULL < integers < strings; within a type, natural order.
  bool operator<(const Value& other) const;
  bool operator<=(const Value& other) const { return !(other < *this); }
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return !(*this < other); }

  size_t Hash() const;

  /// SQL-literal rendering: NULL, 42, 'text' (with '' escaping).
  std::string ToSqlLiteral() const;
  /// Plain rendering without quotes (for result display).
  std::string ToString() const;

 private:
  /// Interned-string representation: index into GlobalStringDict.
  struct DictRef {
    uint32_t id;
    bool operator==(const DictRef& o) const { return id == o.id; }
    bool operator!=(const DictRef& o) const { return id != o.id; }
    bool operator<(const DictRef& o) const {
      // Never used for value ordering (Value::operator< resolves content);
      // defined only so the variant remains ordered.
      return id < o.id;
    }
  };

  explicit Value(DictRef ref) : rep_(ref) {}

  /// Ordering rank of the contained type: NULL < int < string. Both string
  /// representations share a rank so ordering is representation-blind.
  int TypeRank() const {
    if (is_null()) return 0;
    if (is_int()) return 1;
    return 2;
  }

  std::variant<std::monostate, int64_t, std::string, DictRef> rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace dkb

#endif  // DKB_COMMON_VALUE_H_
