#include "view/view_def.h"

#include "common/logging.h"

namespace viewmat::view {

db::Schema SelectProjectDef::ViewSchema() const {
  return base->schema().Project(projection);
}

bool SelectProjectDef::MapTuple(const db::Tuple& base_tuple,
                                db::Tuple* out) const {
  if (!predicate->Evaluate(base_tuple)) return false;
  base_tuple.Project(projection, out);
  return true;
}

Status SelectProjectDef::Validate() const {
  if (base == nullptr) return Status::InvalidArgument("base relation unset");
  if (predicate == nullptr) return Status::InvalidArgument("predicate unset");
  if (projection.empty()) return Status::InvalidArgument("empty projection");
  for (const size_t i : projection) {
    if (i >= base->schema().field_count()) {
      return Status::InvalidArgument("projection index out of range");
    }
  }
  if (view_key_field >= projection.size()) {
    return Status::InvalidArgument("view key field out of range");
  }
  if (base->schema().field(projection[view_key_field]).type !=
      db::ValueType::kInt64) {
    return Status::InvalidArgument("view clustering field must be int64");
  }
  return Status::OK();
}

db::Schema JoinDef::ViewSchema() const {
  const db::Schema left = r1->schema().Project(r1_projection);
  const db::Schema right = r2->schema().Project(r2_projection);
  return db::Schema::Concat(left, r1->name(), right, r2->name());
}

StatusOr<bool> JoinDef::MapTuple(const db::Tuple& r1_tuple, db::Tuple* out,
                                 storage::CostTracker* tracker) const {
  if (!cf->Evaluate(r1_tuple)) return false;
  const int64_t join_key = r1_tuple.at(r1_join_field).AsInt64();
  // The partner's projected fields decode straight into their places in
  // *out, after R1's.
  const Status st = r2->ReadByKey(join_key, [this, out](const uint8_t* rec) {
    const size_t left = r1_projection.size();
    out->Resize(left + r2_projection.size());
    for (size_t j = 0; j < r2_projection.size(); ++j) {
      db::Tuple::DeserializeField(r2->schema(), r2_projection[j], rec,
                                  &out->at(left + j));
    }
  });
  if (st.code() == StatusCode::kNotFound) return false;
  VIEWMAT_RETURN_IF_ERROR(st);
  if (tracker != nullptr) tracker->ChargeTupleCpu();
  for (size_t j = 0; j < r1_projection.size(); ++j) {
    out->at(j) = r1_tuple.at(r1_projection[j]);
  }
  return true;
}

Status JoinDef::Validate() const {
  if (r1 == nullptr || r2 == nullptr) {
    return Status::InvalidArgument("join relations unset");
  }
  if (cf == nullptr) return Status::InvalidArgument("C_f predicate unset");
  if (r1_join_field >= r1->schema().field_count()) {
    return Status::InvalidArgument("r1 join field out of range");
  }
  if (r2->key_field() >= r2->schema().field_count()) {
    return Status::InvalidArgument("r2 key field out of range");
  }
  if (r1_projection.empty() && r2_projection.empty()) {
    return Status::InvalidArgument("empty projection");
  }
  const size_t total = r1_projection.size() + r2_projection.size();
  if (view_key_field >= total) {
    return Status::InvalidArgument("view key field out of range");
  }
  return Status::OK();
}

const char* AggregateOpName(AggregateOp op) {
  switch (op) {
    case AggregateOp::kCount:
      return "count";
    case AggregateOp::kSum:
      return "sum";
    case AggregateOp::kAvg:
      return "avg";
    case AggregateOp::kMin:
      return "min";
    case AggregateOp::kMax:
      return "max";
  }
  return "?";
}

int64_t AggregateDef::GroupOf(const db::Tuple& t) const {
  return group_field ? t.at(*group_field).AsInt64() : 0;
}

double AggregateDef::ValueOf(const db::Tuple& t) const {
  return op == AggregateOp::kCount ? 1.0 : t.at(agg_field).Numeric();
}

Status AggregateDef::Validate() const {
  if (base == nullptr) return Status::InvalidArgument("base relation unset");
  if (predicate == nullptr) return Status::InvalidArgument("predicate unset");
  if (agg_field >= base->schema().field_count()) {
    return Status::InvalidArgument("aggregate field out of range");
  }
  const db::ValueType t = base->schema().field(agg_field).type;
  if (t == db::ValueType::kString && op != AggregateOp::kCount) {
    return Status::InvalidArgument("cannot aggregate a string field");
  }
  if (group_field && (*group_field >= base->schema().field_count() ||
                      base->schema().field(*group_field).type !=
                          db::ValueType::kInt64)) {
    return Status::InvalidArgument("group field must be an int64 column");
  }
  return Status::OK();
}

}  // namespace viewmat::view
