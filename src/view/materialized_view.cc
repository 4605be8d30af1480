#include "view/materialized_view.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace viewmat::view {

namespace {

db::Schema WithCountColumn(const db::Schema& view_schema) {
  std::vector<db::Field> fields = view_schema.fields();
  fields.push_back(db::Field::Int64("__dup"));
  return db::Schema(std::move(fields));
}

}  // namespace

MaterializedView::MaterializedView(storage::BufferPool* pool,
                                   std::string name, db::Schema view_schema,
                                   size_t view_key_field)
    : view_schema_(std::move(view_schema)),
      stored_schema_(WithCountColumn(view_schema_)),
      view_key_field_(view_key_field),
      count_offset_(stored_schema_.offset(view_schema_.field_count())) {
  VIEWMAT_CHECK(view_key_field_ < view_schema_.field_count());
  stored_ = std::make_unique<db::Relation>(
      pool, std::move(name), stored_schema_,
      db::AccessMethod::kClusteredBTree, view_key_field_);
}

db::Tuple MaterializedView::WithCount(const db::Tuple& value,
                                      int64_t count) const {
  std::vector<db::Value> vals = value.values();
  vals.emplace_back(count);
  return db::Tuple(std::move(vals));
}

namespace {

/// The duplicate count of a stored tuple.
int64_t CountOf(const db::Tuple& stored) {
  return stored.values().back().AsInt64();
}

}  // namespace

StatusOr<db::Tuple> MaterializedView::FindStored(
    const db::Tuple& value) const {
  const int64_t key = value.at(view_key_field_).AsInt64();
  db::Tuple found;
  bool have = false;
  VIEWMAT_RETURN_IF_ERROR(
      stored_->FindAllByKey(key, [&](const db::Tuple& stored) {
        const std::vector<db::Value>& fields = stored.values();
        if (fields.size() == value.size() + 1 &&
            std::equal(value.values().begin(), value.values().end(),
                       fields.begin())) {
          found = stored;
          have = true;
          return false;
        }
        return true;
      }));
  if (!have) return Status::NotFound("view value not stored");
  return found;
}

Status MaterializedView::ApplyInsert(const db::Tuple& value) {
  auto existing = FindStored(value);
  ++total_count_;
  if (existing.ok()) {
    return stored_->UpdateExact(*existing,
                                WithCount(value, CountOf(*existing) + 1));
  }
  return stored_->Insert(WithCount(value, 1));
}

Status MaterializedView::ApplyDelete(const db::Tuple& value) {
  auto existing = FindStored(value);
  if (!existing.ok()) {
    return Status::Internal(
        "counting invariant violated: deleting an absent view value " +
        value.ToString());
  }
  const int64_t count = CountOf(*existing);
  --total_count_;
  if (count > 1) {
    return stored_->UpdateExact(*existing, WithCount(value, count - 1));
  }
  return stored_->DeleteExact(*existing);
}

Status MaterializedView::ApplyDelta(const std::vector<db::Tuple>& inserts,
                                    const std::vector<db::Tuple>& deletes) {
  for (const db::Tuple& t : deletes) {
    VIEWMAT_RETURN_IF_ERROR(ApplyDelete(t));
  }
  for (const db::Tuple& t : inserts) {
    VIEWMAT_RETURN_IF_ERROR(ApplyInsert(t));
  }
  return Status::OK();
}

Status MaterializedView::Query(int64_t lo, int64_t hi,
                               const CountedVisitor& visit) const {
  return stored_->RangeScanRecords(lo, hi, [&](const uint8_t* record) {
    int64_t count;
    std::memcpy(&count, record + count_offset_, sizeof(count));
    return visit(db::Tuple::Deserialize(view_schema_, record), count);
  });
}

Status MaterializedView::ScanAll(const CountedVisitor& visit) const {
  return Query(std::numeric_limits<int64_t>::min(),
               std::numeric_limits<int64_t>::max(), visit);
}

Status MaterializedView::Clear() {
  std::vector<db::Tuple> all;
  VIEWMAT_RETURN_IF_ERROR(
      stored_->Scan([&](const db::Tuple& stored) {
        all.push_back(stored);
        return true;
      }));
  for (const db::Tuple& t : all) {
    VIEWMAT_RETURN_IF_ERROR(stored_->DeleteExact(t));
  }
  total_count_ = 0;
  return Status::OK();
}

}  // namespace viewmat::view
