#ifndef VIEWMAT_DB_VALUE_H_
#define VIEWMAT_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace viewmat::db {

/// Column types. Every type serializes to a fixed width (int64/double: 8
/// bytes; strings: the width declared in the schema, zero padded), which
/// keeps records fixed-size — the layout the paper's S-bytes-per-tuple
/// model assumes.
enum class ValueType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

/// A typed column value.
class Value {
 public:
  Value() : rep_(int64_t{0}) {}
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}

  ValueType type() const {
    return static_cast<ValueType>(rep_.index());
  }

  int64_t AsInt64() const { return std::get<int64_t>(rep_); }
  double AsDouble() const { return std::get<double>(rep_); }
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  /// Makes this the string [data, data + size), reusing the buffer of a
  /// string it already holds.
  void AssignString(const char* data, size_t size) {
    if (auto* s = std::get_if<std::string>(&rep_)) {
      s->assign(data, size);
    } else {
      rep_.emplace<std::string>(data, size);
    }
  }

  /// Numeric view: int64 and double both convert; strings are an error.
  double Numeric() const;

  /// Three-way comparison; both values must have the same type.
  int Compare(const Value& other) const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

  /// Stable 64-bit hash (used by Bloom filters and duplicate detection).
  uint64_t Hash() const;

 private:
  std::variant<int64_t, double, std::string> rep_;
};

}  // namespace viewmat::db

#endif  // VIEWMAT_DB_VALUE_H_
