#ifndef VIEWMAT_DB_TUPLE_H_
#define VIEWMAT_DB_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "db/schema.h"
#include "db/value.h"

namespace viewmat::db {

/// A row: an ordered list of values conforming to some Schema. Tuples do
/// not carry their schema — callers pass it where (de)serialization or
/// field typing is needed, which keeps tuples small and copyable.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  /// Serializes to exactly schema.record_size() bytes at `out`.
  void Serialize(const Schema& schema, uint8_t* out) const;

  /// Parses a record serialized with `schema`.
  static Tuple Deserialize(const Schema& schema, const uint8_t* in);

  /// Parses a record into *out, overwriting its values in place: a tuple
  /// that already held a row of this schema keeps its storage, so a scan
  /// that decodes every row into one tuple allocates nothing per row.
  static void Deserialize(const Schema& schema, const uint8_t* in,
                          Tuple* out);

  /// Parses field `i` of a record serialized with `schema` into *out, in
  /// place like the above.
  static void DeserializeField(const Schema& schema, size_t i,
                               const uint8_t* record, Value* out);

  /// The tuple restricted to the given field indices, in that order.
  Tuple Project(const std::vector<size_t>& indices) const;

  /// The same, written into *out in place.
  void Project(const std::vector<size_t>& indices, Tuple* out) const;

  /// Grows or shrinks to n values; the first min(n, size()) keep theirs.
  void Resize(size_t n) { values_.resize(n); }

  /// Concatenation (join results).
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Stable 64-bit hash over all values (order-sensitive).
  uint64_t Hash() const;

  std::string ToString() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.values_ == b.values_;
  }
  /// Lexicographic order; only meaningful for same-schema tuples.
  friend bool operator<(const Tuple& a, const Tuple& b);

 private:
  std::vector<Value> values_;
};

}  // namespace viewmat::db

#endif  // VIEWMAT_DB_TUPLE_H_
