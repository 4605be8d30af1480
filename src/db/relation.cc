#include "db/relation.h"

#include <vector>

#include "common/logging.h"

namespace viewmat::db {

namespace {

/// Serialized image of a tuple, reused as a comparison buffer.
std::vector<uint8_t> SerializeTuple(const Schema& schema, const Tuple& t) {
  std::vector<uint8_t> buf(schema.record_size());
  t.Serialize(schema, buf.data());
  return buf;
}

}  // namespace

Relation::Relation(storage::BufferPool* pool, std::string name, Schema schema,
                   AccessMethod method, size_t key_field, Options options)
    : pool_(pool),
      name_(std::move(name)),
      schema_(std::move(schema)),
      method_(method),
      key_field_(key_field) {
  VIEWMAT_CHECK(pool_ != nullptr);
  VIEWMAT_CHECK(key_field_ < schema_.field_count());
  VIEWMAT_CHECK_MSG(schema_.field(key_field_).type == ValueType::kInt64,
                    "clustering key must be int64");
  const uint32_t record_size = schema_.record_size();
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      btree_ = std::make_unique<storage::BPTree>(pool_, record_size);
      break;
    case AccessMethod::kClusteredHash: {
      uint32_t buckets = options.hash_buckets;
      if (buckets == 0) {
        const uint32_t per_page =
            (pool_->disk()->page_size() - 8) / (8 + record_size);
        buckets = static_cast<uint32_t>(
            options.expected_tuples / std::max<uint32_t>(per_page, 1) + 1);
      }
      hash_ = std::make_unique<storage::HashIndex>(pool_, record_size,
                                                   buckets);
      break;
    }
    case AccessMethod::kHeap:
      heap_ = std::make_unique<storage::HeapFile>(pool_, record_size);
      break;
  }
}

int64_t Relation::KeyOf(const Tuple& t) const {
  VIEWMAT_CHECK(key_field_ < t.size());
  return t.at(key_field_).AsInt64();
}

Status Relation::Insert(const Tuple& t) {
  const std::vector<uint8_t> buf = SerializeTuple(schema_, t);
  const int64_t key = KeyOf(t);
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      VIEWMAT_RETURN_IF_ERROR(btree_->Insert(key, buf.data()));
      break;
    case AccessMethod::kClusteredHash:
      VIEWMAT_RETURN_IF_ERROR(hash_->Insert(key, buf.data()));
      break;
    case AccessMethod::kHeap: {
      VIEWMAT_ASSIGN_OR_RETURN(const storage::Rid rid,
                               heap_->Insert(buf.data()));
      heap_key_index_.emplace(key, rid);
      break;
    }
  }
  ++tuple_count_;
  return Status::OK();
}

Status Relation::BulkLoadSorted(
    const std::function<bool(Tuple*)>& source) {
  if (method_ != AccessMethod::kClusteredBTree) {
    return Status::InvalidArgument("bulk load requires a B+-tree relation");
  }
  if (tuple_count_ != 0) {
    return Status::FailedPrecondition("bulk load requires an empty relation");
  }
  std::vector<uint8_t> buf(schema_.record_size());
  size_t loaded = 0;
  VIEWMAT_RETURN_IF_ERROR(btree_->BulkLoad(
      [&](int64_t* key, uint8_t* payload) {
        Tuple t;
        if (!source(&t)) return false;
        *key = KeyOf(t);
        t.Serialize(schema_, payload);
        ++loaded;
        return true;
      },
      /*fill_factor=*/1.0));
  tuple_count_ = loaded;
  return Status::OK();
}

Status Relation::Compact() {
  if (method_ != AccessMethod::kClusteredBTree) {
    return Status::InvalidArgument("compact requires a B+-tree relation");
  }
  return btree_->Compact(1.0);
}

Status Relation::HeapDeleteWhere(
    int64_t key, const std::function<bool(const Tuple&)>& pred) {
  std::vector<uint8_t> buf(schema_.record_size());
  auto [it, end] = heap_key_index_.equal_range(key);
  for (; it != end; ++it) {
    VIEWMAT_RETURN_IF_ERROR(heap_->Get(it->second, buf.data()));
    const Tuple stored = Tuple::Deserialize(schema_, buf.data());
    if (pred(stored)) {
      VIEWMAT_RETURN_IF_ERROR(heap_->Delete(it->second));
      heap_key_index_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no matching tuple");
}

Status Relation::DeleteExact(const Tuple& t) {
  const std::vector<uint8_t> buf = SerializeTuple(schema_, t);
  const int64_t key = KeyOf(t);
  auto bytes_match = [&](const uint8_t* payload) {
    return std::memcmp(payload, buf.data(), buf.size()) == 0;
  };
  Status st;
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      st = btree_->Delete(key, bytes_match);
      break;
    case AccessMethod::kClusteredHash:
      st = hash_->Delete(key, bytes_match);
      break;
    case AccessMethod::kHeap:
      st = HeapDeleteWhere(key, [&](const Tuple& s) { return s == t; });
      break;
  }
  if (st.ok()) --tuple_count_;
  return st;
}

Status Relation::UpdateExact(const Tuple& old_t, const Tuple& new_t) {
  const int64_t old_key = KeyOf(old_t);
  const int64_t new_key = KeyOf(new_t);
  if (old_key != new_key) {
    VIEWMAT_RETURN_IF_ERROR(DeleteExact(old_t));
    return Insert(new_t);
  }
  const std::vector<uint8_t> old_buf = SerializeTuple(schema_, old_t);
  const std::vector<uint8_t> new_buf = SerializeTuple(schema_, new_t);
  auto bytes_match = [&](const uint8_t* payload) {
    return std::memcmp(payload, old_buf.data(), old_buf.size()) == 0;
  };
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      return btree_->UpdatePayload(old_key, bytes_match, new_buf.data());
    case AccessMethod::kClusteredHash:
      return hash_->UpdatePayload(old_key, bytes_match, new_buf.data());
    case AccessMethod::kHeap: {
      auto [it, end] = heap_key_index_.equal_range(old_key);
      std::vector<uint8_t> buf(schema_.record_size());
      for (; it != end; ++it) {
        VIEWMAT_RETURN_IF_ERROR(heap_->Get(it->second, buf.data()));
        if (std::memcmp(buf.data(), old_buf.data(), buf.size()) == 0) {
          return heap_->Update(it->second, new_buf.data());
        }
      }
      return Status::NotFound("no matching tuple");
    }
  }
  return Status::Internal("unreachable");
}

Status Relation::FindByKey(int64_t key, Tuple* out) const {
  std::vector<uint8_t> buf(schema_.record_size());
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      VIEWMAT_RETURN_IF_ERROR(btree_->Find(key, buf.data()));
      break;
    case AccessMethod::kClusteredHash:
      VIEWMAT_RETURN_IF_ERROR(hash_->Find(key, buf.data()));
      break;
    case AccessMethod::kHeap: {
      auto it = heap_key_index_.find(key);
      if (it == heap_key_index_.end()) return Status::NotFound("key absent");
      VIEWMAT_RETURN_IF_ERROR(heap_->Get(it->second, buf.data()));
      break;
    }
  }
  *out = Tuple::Deserialize(schema_, buf.data());
  return Status::OK();
}

Status Relation::FindAllByKey(int64_t key, const TupleVisitor& visit) const {
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      return btree_->RangeScan(key, key,
                               [&](int64_t, const uint8_t* payload) {
                                 return visit(
                                     Tuple::Deserialize(schema_, payload));
                               });
    case AccessMethod::kClusteredHash:
      return hash_->FindAll(key, [&](int64_t, const uint8_t* payload) {
        return visit(Tuple::Deserialize(schema_, payload));
      });
    case AccessMethod::kHeap: {
      std::vector<uint8_t> buf(schema_.record_size());
      auto [it, end] = heap_key_index_.equal_range(key);
      for (; it != end; ++it) {
        VIEWMAT_RETURN_IF_ERROR(heap_->Get(it->second, buf.data()));
        if (!visit(Tuple::Deserialize(schema_, buf.data()))) break;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status Relation::Scan(const TupleVisitor& visit) const {
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      return btree_->ScanAll([&](int64_t, const uint8_t* payload) {
        return visit(Tuple::Deserialize(schema_, payload));
      });
    case AccessMethod::kClusteredHash:
      return hash_->ScanAll([&](int64_t, const uint8_t* payload) {
        return visit(Tuple::Deserialize(schema_, payload));
      });
    case AccessMethod::kHeap:
      return heap_->Scan([&](storage::Rid, const uint8_t* record) {
        return visit(Tuple::Deserialize(schema_, record));
      });
  }
  return Status::Internal("unreachable");
}

Status Relation::RangeScanByKey(int64_t lo, int64_t hi,
                                const TupleVisitor& visit) const {
  return RangeScanRecords(lo, hi, [&](const uint8_t* record) {
    return visit(Tuple::Deserialize(schema_, record));
  });
}

Status Relation::RangeScanRecords(int64_t lo, int64_t hi,
                                  const RecordVisitor& visit) const {
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      return btree_->RangeScan(lo, hi, [&](int64_t, const uint8_t* payload) {
        return visit(payload);
      });
    case AccessMethod::kClusteredHash:
      return Status::InvalidArgument(
          "hash access method cannot serve range scans");
    case AccessMethod::kHeap: {
      // Unclustered plan: walk the secondary index, fetch each data page.
      std::vector<uint8_t> buf(schema_.record_size());
      for (auto it = heap_key_index_.lower_bound(lo);
           it != heap_key_index_.end() && it->first <= hi; ++it) {
        VIEWMAT_RETURN_IF_ERROR(heap_->Get(it->second, buf.data()));
        if (!visit(buf.data())) break;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

size_t Relation::data_page_count() const {
  switch (method_) {
    case AccessMethod::kClusteredBTree:
      return btree_->leaf_page_count();
    case AccessMethod::kClusteredHash:
      return hash_->page_count();
    case AccessMethod::kHeap:
      return heap_->page_count();
  }
  return 0;
}

}  // namespace viewmat::db
