#include "db/tuple.h"

#include <cstring>

#include "common/logging.h"

namespace viewmat::db {

void Tuple::Serialize(const Schema& schema, uint8_t* out) const {
  VIEWMAT_CHECK_MSG(values_.size() == schema.field_count(),
                    "tuple arity does not match schema");
  for (size_t i = 0; i < values_.size(); ++i) {
    const Field& f = schema.field(i);
    const Value& v = values_[i];
    VIEWMAT_CHECK_MSG(v.type() == f.type, "value type does not match schema");
    uint8_t* dst = out + schema.offset(i);
    switch (f.type) {
      case ValueType::kInt64: {
        const int64_t x = v.AsInt64();
        std::memcpy(dst, &x, 8);
        break;
      }
      case ValueType::kDouble: {
        const double x = v.AsDouble();
        std::memcpy(dst, &x, 8);
        break;
      }
      case ValueType::kString: {
        const std::string& s = v.AsString();
        const size_t n = std::min<size_t>(s.size(), f.width);
        std::memcpy(dst, s.data(), n);
        if (n < f.width) std::memset(dst + n, 0, f.width - n);
        break;
      }
    }
  }
}

Tuple Tuple::Deserialize(const Schema& schema, const uint8_t* in) {
  Tuple t;
  Deserialize(schema, in, &t);
  return t;
}

void Tuple::Deserialize(const Schema& schema, const uint8_t* in, Tuple* out) {
  out->values_.resize(schema.field_count());
  for (size_t i = 0; i < schema.field_count(); ++i) {
    DeserializeField(schema, i, in, &out->values_[i]);
  }
}

void Tuple::DeserializeField(const Schema& schema, size_t i,
                             const uint8_t* record, Value* out) {
  const Field& f = schema.field(i);
  const uint8_t* src = record + schema.offset(i);
  switch (f.type) {
    case ValueType::kInt64: {
      int64_t x;
      std::memcpy(&x, src, 8);
      *out = Value(x);
      break;
    }
    case ValueType::kDouble: {
      double x;
      std::memcpy(&x, src, 8);
      *out = Value(x);
      break;
    }
    case ValueType::kString: {
      // Stored zero-padded; trim at the first NUL.
      size_t len = 0;
      while (len < f.width && src[len] != 0) ++len;
      out->AssignString(reinterpret_cast<const char*>(src), len);
      break;
    }
  }
}

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  Tuple out;
  Project(indices, &out);
  return out;
}

void Tuple::Project(const std::vector<size_t>& indices, Tuple* out) const {
  out->values_.resize(indices.size());
  for (size_t j = 0; j < indices.size(); ++j) {
    VIEWMAT_CHECK(indices[j] < values_.size());
    out->values_[j] = values_[indices[j]];
  }
}

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.values_.begin(), left.values_.end());
  out.insert(out.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(out));
}

uint64_t Tuple::Hash() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : values_) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

bool operator<(const Tuple& a, const Tuple& b) {
  const size_t n = std::min(a.values_.size(), b.values_.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a.values_[i].Compare(b.values_[i]);
    if (c != 0) return c < 0;
  }
  return a.values_.size() < b.values_.size();
}

}  // namespace viewmat::db
