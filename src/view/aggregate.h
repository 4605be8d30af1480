#ifndef VIEWMAT_VIEW_AGGREGATE_H_
#define VIEWMAT_VIEW_AGGREGATE_H_

#include <cstdint>
#include <map>

#include "common/status.h"
#include "hr/hypothetical_relation.h"
#include "storage/cost_tracker.h"
#include "storage/disk.h"
#include "view/screening.h"
#include "view/strategy.h"
#include "view/view_def.h"

namespace viewmat::view {

/// Incrementally maintainable aggregate state (§3.6): a compact summary
/// with insert/delete transition functions and a finalizer. count, sum and
/// avg are fully incremental; min and max are incremental on insert but may
/// require recomputation when the current extremum is deleted (the state
/// then reports exact() == false until rebuilt).
class AggregateState {
 public:
  explicit AggregateState(AggregateOp op = AggregateOp::kSum) : op_(op) {}

  void ApplyInsert(double v);

  /// Applies a deletion. Returns false when the state can no longer answer
  /// exactly (min/max lost their extremum) and must be recomputed.
  bool ApplyDelete(double v);

  /// The current value. NotFound when the aggregated set is empty and the
  /// op has no empty-set value (min/max); FailedPrecondition when inexact.
  StatusOr<db::Value> Current() const;

  bool exact() const { return exact_; }
  int64_t count() const { return count_; }
  AggregateOp op() const { return op_; }

  /// Fixed-width image of an exact state: the member count and the running
  /// value. The op is the view's, so it is not part of the image.
  static constexpr uint32_t kSerializedSize = 16;
  void Serialize(uint8_t* out) const;
  static AggregateState Deserialize(AggregateOp op, const uint8_t* in);

  friend bool operator==(const AggregateState&, const AggregateState&);

 private:
  AggregateOp op_;
  int64_t count_ = 0;
  double value_ = 0.0;  ///< the sum (count, sum, avg) or the extremum
  bool exact_ = true;
};

/// Every non-empty group's state, in group order. The ungrouped view is
/// the one group 0.
using AggregateGroups = std::map<int64_t, AggregateState>;

/// The stored copy of an aggregate view: every group's state on one page
/// of the base relation's device, read and written straight through. Each
/// query thus costs exactly one C2 read and each refresh at most one C2
/// write — the unit charges of the Model 3 formulas. Like the paper, it
/// assumes the states fit in a block: more groups than the page holds are
/// ResourceExhausted. The maintainers check before a transaction or a fold
/// takes effect, so a refused one changes neither the page nor the base.
///
/// Page layout: a uint32 group count, the op byte, three spare bytes, then
/// one (int64 group, state) record per group in group order.
class MaterializedAggregate {
 public:
  explicit MaterializedAggregate(const AggregateDef& def);

  /// Decodes the page. The bytes come back from the device, so a group
  /// count beyond the page, a foreign op byte, or an empty or out-of-order
  /// record is rejected with Internal.
  Status Read(AggregateGroups* out) const;
  Status Write(const AggregateGroups& groups);

  /// ResourceExhausted when `groups` would not fit on the page.
  Status CheckCapacity(const AggregateGroups& groups) const;

  storage::PageId page() const { return page_; }

 private:
  /// How many groups the page holds.
  size_t capacity() const;

  storage::DiskInterface* disk_;
  AggregateOp op_;
  storage::PageId page_;
};

/// Recomputes every group from the base relation with a clustered scan
/// over the predicate's implied key range, charging C1 per tuple screened
/// when `tracker` is set — the from-scratch path the maintainers fall back
/// to and the whole of the kQmRecompute strategy.
Status ComputeAggregateFromBase(const AggregateDef& def,
                                storage::CostTracker* tracker,
                                AggregateGroups* out);

// The three strategies answer Query(lo, hi) with one (group, value) tuple,
// count 1, per group in [lo, hi] that has a value. Empty groups have none,
// and neither has an empty ungrouped avg, min or max; an empty ungrouped
// count or sum reads 0.

/// Immediate maintenance of an aggregate: the states are updated (and the
/// page written through) at the end of every transaction that touches the
/// aggregated set.
class ImmediateAggregateStrategy : public ViewStrategy {
 public:
  ImmediateAggregateStrategy(AggregateDef def, storage::CostTracker* tracker);

  Status InitializeFromBase();
  Status OnTransaction(const db::Transaction& txn) override;
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "immediate-aggregate"; }

  uint64_t recompute_count() const { return recompute_count_; }

 private:
  Status Recompute();

  AggregateDef def_;
  storage::CostTracker* tracker_;
  UpdateScreen screen_;
  MaterializedAggregate stored_;
  AggregateGroups groups_;  ///< cached copy of the page
  uint64_t recompute_count_ = 0;
};

/// Deferred maintenance of an aggregate: updates accumulate in the base
/// relation's AD differential; a query reads the state page, folds the
/// differential, patches the states, and writes the page back only if a
/// group changed.
class DeferredAggregateStrategy : public ViewStrategy {
 public:
  DeferredAggregateStrategy(AggregateDef def, hr::AdFile::Options ad_options,
                            storage::CostTracker* tracker);

  Status InitializeFromBase();
  Status OnTransaction(const db::Transaction& txn) override;
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "deferred-aggregate"; }

  /// Base ∪ A − D through the hypothetical relation: committed transactions
  /// live in the differential until a query folds them.
  Status ScanVisibleBase(const db::Relation* base,
                         const db::Relation::TupleVisitor& visit)
      const override;

  uint64_t pending_tuples() const { return hr_.ad().entry_count(); }

 private:
  AggregateDef def_;
  storage::CostTracker* tracker_;
  UpdateScreen screen_;
  hr::HypotheticalRelation hr_;
  MaterializedAggregate stored_;
};

/// No stored state: every query recomputes the aggregate with a clustered
/// scan (the paper's standard-processing baseline, TOTAL_clustered).
class RecomputeAggregateStrategy : public ViewStrategy {
 public:
  RecomputeAggregateStrategy(AggregateDef def, storage::CostTracker* tracker);

  Status OnTransaction(const db::Transaction& txn) override;
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "recompute-aggregate"; }

 private:
  AggregateDef def_;
  storage::CostTracker* tracker_;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_AGGREGATE_H_
