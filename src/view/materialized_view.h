#ifndef VIEWMAT_VIEW_MATERIALIZED_VIEW_H_
#define VIEWMAT_VIEW_MATERIALIZED_VIEW_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/relation.h"
#include "db/schema.h"
#include "db/tuple.h"
#include "storage/buffer_pool.h"

namespace viewmat::view {

/// A stored copy of a view maintained with the duplicate-count technique of
/// §2.1: projection can map several source tuples to one view value, so
/// each stored view tuple carries a count of contributing sources.
/// Insertion of an existing value increments the count; deletion decrements
/// it and physically removes the tuple at zero. This makes π distributive
/// over ∪ and −, which the differential update algorithm relies on.
///
/// Storage: a clustered B+-tree on the view's key field, with the count as
/// a hidden trailing int64 column. The stored schema is the view schema plus
/// that column, so the view fields keep their offsets: a scan decodes each
/// record once with the view schema and reads the count at its fixed offset.
class MaterializedView {
 public:
  /// Visitor over distinct view values with their multiplicities.
  using CountedVisitor =
      std::function<bool(const db::Tuple& value, int64_t count)>;

  MaterializedView(storage::BufferPool* pool, std::string name,
                   db::Schema view_schema, size_t view_key_field);

  MaterializedView(const MaterializedView&) = delete;
  MaterializedView& operator=(const MaterializedView&) = delete;

  const db::Schema& view_schema() const { return view_schema_; }
  size_t view_key_field() const { return view_key_field_; }

  /// Registers one more source for `value` (±1 on the duplicate count).
  Status ApplyInsert(const db::Tuple& value);

  /// Removes one source of `value`. Internal error if the value is not
  /// present — that means the maintenance algorithm lost track, exactly the
  /// corruption Appendix A's incorrect expansion causes.
  Status ApplyDelete(const db::Tuple& value);

  /// Batch convenience: all deletes then all inserts.
  Status ApplyDelta(const std::vector<db::Tuple>& inserts,
                    const std::vector<db::Tuple>& deletes);

  /// Clustered scan of values with view key in [lo, hi].
  Status Query(int64_t lo, int64_t hi, const CountedVisitor& visit) const;

  /// Every value, in key order.
  Status ScanAll(const CountedVisitor& visit) const;

  /// Discards the contents (used when rebuilding from scratch).
  Status Clear();

  /// Number of stored (distinct) values and total multiplicity.
  size_t distinct_count() const { return stored_->tuple_count(); }
  int64_t total_count() const { return total_count_; }

  /// Pages holding view data, for experiment reporting.
  size_t data_page_count() const { return stored_->data_page_count(); }

 private:
  /// The stored tuple = view value + trailing count column.
  db::Tuple WithCount(const db::Tuple& value, int64_t count) const;

  /// Finds the stored tuple equal to `value` on all view fields.
  StatusOr<db::Tuple> FindStored(const db::Tuple& value) const;

  db::Schema view_schema_;
  db::Schema stored_schema_;
  size_t view_key_field_;
  uint32_t count_offset_;  ///< byte offset of the count in a stored record
  std::unique_ptr<db::Relation> stored_;
  int64_t total_count_ = 0;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_MATERIALIZED_VIEW_H_
