#ifndef VIEWMAT_VIEW_TUPLE_VIEW_H_
#define VIEWMAT_VIEW_TUPLE_VIEW_H_

#include <memory>
#include <string>
#include <variant>

#include "common/status.h"
#include "db/relation.h"
#include "storage/cost_tracker.h"
#include "view/materialized_view.h"
#include "view/screening.h"
#include "view/view_def.h"

namespace viewmat::view {

/// A tuple-valued view: Model 1's select-project or Model 2's join. The
/// materializing strategies (immediate, deferred) maintain either one
/// through these helpers.
using TupleViewDef = std::variant<SelectProjectDef, JoinDef>;

/// The relation whose updates drive the view (R, or R1 for joins).
inline db::Relation* UpdatedRelation(const TupleViewDef& def) {
  if (std::holds_alternative<SelectProjectDef>(def)) {
    return std::get<SelectProjectDef>(def).base;
  }
  return std::get<JoinDef>(def).r1;
}

inline UpdateScreen MakeScreen(const TupleViewDef& def,
                               storage::CostTracker* tracker) {
  if (std::holds_alternative<SelectProjectDef>(def)) {
    return UpdateScreen::ForSelectProject(std::get<SelectProjectDef>(def),
                                          tracker);
  }
  return UpdateScreen::ForJoin(std::get<JoinDef>(def), tracker);
}

/// An empty stored copy for the view, in the updated relation's pool.
inline std::unique_ptr<MaterializedView> MakeView(const TupleViewDef& def,
                                                  const std::string& name) {
  if (std::holds_alternative<SelectProjectDef>(def)) {
    const auto& sp = std::get<SelectProjectDef>(def);
    return std::make_unique<MaterializedView>(sp.base->pool(), name,
                                              sp.ViewSchema(),
                                              sp.view_key_field);
  }
  const auto& j = std::get<JoinDef>(def);
  return std::make_unique<MaterializedView>(j.r1->pool(), name,
                                            j.ViewSchema(), j.view_key_field);
}

/// Maps a base tuple to a view value; false when it contributes nothing.
/// A join probes R2, charged to `tracker`.
inline StatusOr<bool> MapToView(const TupleViewDef& def, const db::Tuple& t,
                                db::Tuple* out,
                                storage::CostTracker* tracker) {
  if (std::holds_alternative<SelectProjectDef>(def)) {
    return std::get<SelectProjectDef>(def).MapTuple(t, out);
  }
  return std::get<JoinDef>(def).MapTuple(t, out, tracker);
}

/// Scan visitor inserting each visited tuple's view image into `view`; the
/// first failure lands in *inner and stops the scan. Every image is mapped
/// into one tuple the visitor owns.
inline db::Relation::TupleVisitor ViewInserter(const TupleViewDef& def,
                                               storage::CostTracker* tracker,
                                               MaterializedView* view,
                                               Status* inner) {
  return [&def, tracker, view, inner,
          value = db::Tuple()](const db::Tuple& t) mutable {
    auto mapped = MapToView(def, t, &value, tracker);
    if (!mapped.ok()) {
      *inner = mapped.status();
      return false;
    }
    if (*mapped) {
      *inner = view->ApplyInsert(value);
      if (!inner->ok()) return false;
    }
    return true;
  };
}

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_TUPLE_VIEW_H_
