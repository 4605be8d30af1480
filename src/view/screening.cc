#include "view/screening.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace viewmat::view {

const char* ScreeningModeName(ScreeningMode mode) {
  switch (mode) {
    case ScreeningMode::kRuleIndex:
      return "rule-index";
    case ScreeningMode::kSubstituteAll:
      return "substitute-all";
    case ScreeningMode::kRiu:
      return "riu";
  }
  return "?";
}

std::set<size_t> FieldsRead(const SelectProjectDef& def) {
  std::set<size_t> fields(def.projection.begin(), def.projection.end());
  // Conservative: treat every field the predicate could reference as read.
  // Our predicates only compare against constants, so walking the implied
  // ranges per field identifies the referenced ones; a field is referenced
  // if restricting it changes satisfaction. Simpler and sound: include the
  // lock field plus every field with a bounded implied range.
  for (size_t i = 0; i < def.base->schema().field_count(); ++i) {
    if (!def.predicate->ImpliedRange(i).Unbounded()) fields.insert(i);
  }
  fields.insert(def.BaseKeyField());
  return fields;
}

std::set<size_t> FieldsRead(const JoinDef& def) {
  std::set<size_t> fields(def.r1_projection.begin(), def.r1_projection.end());
  for (size_t i = 0; i < def.r1->schema().field_count(); ++i) {
    if (!def.cf->ImpliedRange(i).Unbounded()) fields.insert(i);
  }
  fields.insert(def.r1_join_field);
  return fields;
}

std::set<size_t> FieldsRead(const AggregateDef& def) {
  std::set<size_t> fields;
  fields.insert(def.agg_field);
  // Moving a row between groups changes the view.
  if (def.group_field) fields.insert(*def.group_field);
  for (size_t i = 0; i < def.base->schema().field_count(); ++i) {
    if (!def.predicate->ImpliedRange(i).Unbounded()) fields.insert(i);
  }
  return fields;
}

std::set<size_t> FieldsWritten(const db::NetChange& net) {
  std::set<size_t> fields;
  // Pair up deletes and inserts with equal keyless-equality? Without key
  // knowledge, pair tuples positionally when an update produced them;
  // conservatively, any delete without an identical-arity insert marks all
  // fields. We match each delete to the insert that differs from it in the
  // fewest fields — updates produced by Transaction::Update keep most
  // fields equal, so this recovers the true written set while remaining
  // conservative for genuine insert/delete pairs.
  std::vector<const db::Tuple*> unmatched_inserts;
  for (const db::Tuple& t : net.inserts()) unmatched_inserts.push_back(&t);

  auto diff_fields = [](const db::Tuple& a, const db::Tuple& b,
                        std::set<size_t>* out) {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      if (!(a.at(i) == b.at(i))) out->insert(i);
    }
    for (size_t i = n; i < std::max(a.size(), b.size()); ++i) out->insert(i);
  };

  for (const db::Tuple& d : net.deletes()) {
    const db::Tuple* best = nullptr;
    size_t best_diff = SIZE_MAX;
    size_t best_idx = 0;
    for (size_t i = 0; i < unmatched_inserts.size(); ++i) {
      std::set<size_t> diffs;
      diff_fields(d, *unmatched_inserts[i], &diffs);
      if (diffs.size() < best_diff) {
        best_diff = diffs.size();
        best = unmatched_inserts[i];
        best_idx = i;
      }
    }
    if (best != nullptr) {
      diff_fields(d, *best, &fields);
      unmatched_inserts.erase(unmatched_inserts.begin() + best_idx);
    } else {
      // Pure deletion: every field of the tuple "changes".
      for (size_t i = 0; i < d.size(); ++i) fields.insert(i);
    }
  }
  for (const db::Tuple* t : unmatched_inserts) {
    for (size_t i = 0; i < t->size(); ++i) fields.insert(i);
  }
  return fields;
}

UpdateScreen::UpdateScreen(db::PredicateRef predicate, size_t lock_field,
                           storage::CostTracker* tracker, ScreeningMode mode,
                           std::set<size_t> fields_read)
    : mode_(mode),
      predicate_(std::move(predicate)),
      lock_field_(lock_field),
      intervals_(predicate_->ImpliedRangeSet(lock_field_)),
      fields_read_(std::move(fields_read)),
      tracker_(tracker) {
  VIEWMAT_CHECK(predicate_ != nullptr);
}

UpdateScreen UpdateScreen::ForSelectProject(const SelectProjectDef& def,
                                            storage::CostTracker* tracker,
                                            ScreeningMode mode) {
  return UpdateScreen(def.predicate, def.base->key_field(), tracker, mode,
                      FieldsRead(def));
}

UpdateScreen UpdateScreen::ForJoin(const JoinDef& def,
                                   storage::CostTracker* tracker) {
  return UpdateScreen(def.cf, def.r1->key_field(), tracker);
}

UpdateScreen UpdateScreen::ForAggregate(const AggregateDef& def,
                                        storage::CostTracker* tracker) {
  return UpdateScreen(def.predicate, def.base->key_field(), tracker);
}

bool UpdateScreen::TransactionIsIgnorable(const db::NetChange& net) {
  if (mode_ != ScreeningMode::kRiu) return false;
  // Compile-time phase: does the command write any field the view reads?
  // Per-transaction cost only (not charged per tuple).
  const std::set<size_t> written = FieldsWritten(net);
  for (const size_t f : written) {
    if (fields_read_.contains(f)) return false;
  }
  ++riu_transactions_;
  return true;
}

bool UpdateScreen::Passes(const db::Tuple& t) {
  ++screened_;
  if (mode_ == ScreeningMode::kRuleIndex) {
    // Stage 1: does the tuple disturb a t-locked index interval? Free.
    const db::Value& v = t.at(lock_field_);
    if (v.type() == db::ValueType::kInt64 &&
        !intervals_.Contains(v.AsInt64())) {
      return false;
    }
  }
  // Stage 2 (every tuple under substitute-all and non-ignorable RIU
  // commands): substitute into the view predicate (cost C1). The screen
  // charge is attributed to the screen phase regardless of which strategy
  // entry point triggered it.
  ++substitutions_;
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kScreen);
  if (tracker_ != nullptr) tracker_->ChargeScreen();
  const bool pass = predicate_->Evaluate(t);
  if (pass) ++passes_;
  return pass;
}

}  // namespace viewmat::view
