#include "sim/strategy_driver.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "view/aggregate.h"
#include "view/deferred.h"
#include "view/hybrid.h"
#include "view/immediate.h"
#include "view/query_modification.h"
#include "view/recompute_on_change.h"

namespace viewmat::sim {

using costmodel::Params;
using costmodel::Strategy;
using workload::Scenario;

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kQueryModification: return "query-modification";
    case StrategyKind::kImmediate: return "immediate";
    case StrategyKind::kDeferred: return "deferred";
    case StrategyKind::kSnapshot: return "snapshot";
    case StrategyKind::kRecomputeOnChange: return "recompute-on-change";
    case StrategyKind::kHybrid: return "hybrid";
  }
  return "unknown";
}

bool SupportsModel(StrategyKind kind, int model) {
  if (model == 1) return true;
  return (model == 2 || model == 3) &&
         (kind == StrategyKind::kQueryModification ||
          kind == StrategyKind::kImmediate ||
          kind == StrategyKind::kDeferred);
}

Params TortureParams(const Params& base) {
  Params p = base;
  p.N = 96;
  p.S = 64;
  p.B = 512;
  p.n = 16;
  p.k = 24;
  p.l = 4;
  p.q = 8;
  p.f = 0.5;
  p.f_v = 0.5;
  p.f_R2 = 0.25;
  return p;
}

ShadowOracle MakeShadow(const Scenario& scenario) {
  ShadowOracle shadow;
  shadow.n = scenario.n();
  shadow.f_cut = scenario.ViewTupleCount();
  shadow.k2.resize(shadow.n);
  shadow.v.resize(shadow.n);
  for (int64_t key = 0; key < shadow.n; ++key) {
    const db::Tuple t = scenario.BaseTuple(key);
    shadow.k2[key] = t.at(Scenario::kFieldK2).AsInt64();
    shadow.v[key] = t.at(Scenario::kFieldV).AsDouble();
  }
  shadow.w_by_r2_key.resize(scenario.r2_count());
  for (int64_t key = 0; key < scenario.r2_count(); ++key) {
    shadow.w_by_r2_key[key] = scenario.R2Tuple(key).at(1).AsDouble();
  }
  return shadow;
}

bool ShadowViewTuple(const ShadowOracle& shadow, int model, int64_t key,
                     db::Tuple* out) {
  if (key < 0 || key >= shadow.f_cut) return false;
  if (model == 1) {
    // Projection (k1, v) of the select-project definition.
    *out = db::Tuple({db::Value(key), db::Value(shadow.v[key])});
    return true;
  }
  // Join projection (k1, v) ++ (r2key, w).
  const int64_t r2key = shadow.k2[key];
  *out = db::Tuple({db::Value(key), db::Value(shadow.v[key]),
                    db::Value(r2key), db::Value(shadow.w_by_r2_key[r2key])});
  return true;
}

ViewMultiset ExpectedRange(const ShadowOracle& shadow, int model, int64_t lo,
                           int64_t hi) {
  ViewMultiset expected;
  const int64_t from = std::max<int64_t>(lo, 0);
  const int64_t to = std::min<int64_t>(hi, shadow.f_cut - 1);
  for (int64_t key = from; key <= to; ++key) {
    db::Tuple value;
    if (ShadowViewTuple(shadow, model, key, &value)) expected[value] += 1;
  }
  return expected;
}

namespace {

/// AD-file options sized to the workload. A durable driver turns the AD
/// log on: `lsns` joins it to the RecoveryManager's LSN space, and
/// `group_commit` leaves the per-commit sync to the batch boundary (see
/// AdFile::Options::sync_on_commit).
hr::AdFile::Options AdOptions(const Params& params, bool durable,
                              storage::LsnAllocator* lsns, bool group_commit) {
  hr::AdFile::Options options;
  const double expected = std::max(2.0 * params.u(), 64.0);
  options.expected_keys = static_cast<size_t>(expected);
  options.hash_buckets = static_cast<uint32_t>(
      std::max(2.0, 2.0 * params.u() / params.T() + 1.0));
  if (durable) {
    options.enable_wal = true;
    options.lsn_allocator = lsns;
    options.sync_on_commit = !group_commit;
  }
  return options;
}

/// The scenario's view definitions: Model 1's select-project, Model 2's
/// join and Model 3's aggregate.
view::SelectProjectDef MakeSpDef(Scenario* scenario, db::Relation* base) {
  view::SelectProjectDef def;
  def.base = base;
  def.predicate = scenario->ViewPredicate();
  // Project k1 and v: the clustering key plus the updated payload — "half
  // the attributes" in spirit (the wide pad column is dropped, so view
  // tuples are about half the base tuple size, as in the paper).
  def.projection = {Scenario::kFieldK1, Scenario::kFieldV};
  def.view_key_field = 0;
  return def;
}

view::JoinDef MakeJoinDef(Scenario* scenario, db::Relation* r1,
                          db::Relation* r2) {
  view::JoinDef def;
  def.r1 = r1;
  def.r2 = r2;
  def.cf = scenario->ViewPredicate();
  def.r1_join_field = Scenario::kFieldK2;
  def.r1_projection = {Scenario::kFieldK1, Scenario::kFieldV};
  def.r2_projection = {0, 1};  // key, w
  def.view_key_field = 0;
  return def;
}

view::AggregateDef MakeAggDef(Scenario* scenario, db::Relation* base) {
  view::AggregateDef def;
  def.base = base;
  def.predicate = scenario->ViewPredicate();
  def.op = view::AggregateOp::kSum;
  def.agg_field = Scenario::kFieldV;
  return def;
}

}  // namespace

Status RecomputeFromBase(int model, const view::SelectProjectDef& sp,
                         const view::JoinDef& join, db::Relation* rel,
                         ViewMultiset* out) {
  out->clear();
  Status inner = Status::OK();
  VIEWMAT_RETURN_IF_ERROR(rel->Scan([&](const db::Tuple& t) {
    db::Tuple value;
    if (model == 1) {
      if (sp.MapTuple(t, &value)) (*out)[value] += 1;
      return true;
    }
    auto mapped = join.MapTuple(t, &value, nullptr);
    if (!mapped.ok()) {
      inner = mapped.status();
      return false;
    }
    if (*mapped) (*out)[value] += 1;
    return true;
  }));
  return inner;
}

StrategyDriver::StrategyDriver(const Options& options)
    : options_(options),
      tracker_(options.params.C1, options.params.C2, options.params.C3),
      inner_(static_cast<uint32_t>(options.params.B), &tracker_),
      disk_(&inner_, options.seed),
      pool_(&disk_, options.pool_pages),
      catalog_(&pool_),
      scenario_(options.params, options.seed) {}

StatusOr<std::unique_ptr<StrategyDriver>> StrategyDriver::Create(
    const Options& options) {
  if (!SupportsModel(options.kind, options.model)) {
    return Status::InvalidArgument(
        "model " + std::to_string(options.model) +
        " is not supported by the " + StrategyKindName(options.kind) +
        " strategy");
  }
  if (options.model == 3 && options.durable) {
    return Status::InvalidArgument(
        "StrategyDriver::Options::durable must be false for model 3 (the "
        "aggregate strategies do not recover)");
  }
  const bool qm_on_model1 =
      options.kind == StrategyKind::kQueryModification && options.model == 1;
  if (options.qm_plan != Strategy::kQmClustered &&
      !(qm_on_model1 && (options.qm_plan == Strategy::kQmUnclustered ||
                         options.qm_plan == Strategy::kQmSequential))) {
    return Status::InvalidArgument(
        std::string("StrategyDriver::Options::qm_plan ") +
        costmodel::StrategyName(options.qm_plan) +
        " needs query-modification on model 1 (only the clustered plan "
        "runs elsewhere)");
  }
  std::unique_ptr<StrategyDriver> driver(new StrategyDriver(options));
  VIEWMAT_RETURN_IF_ERROR(driver->Build());
  return driver;
}

Status StrategyDriver::Build() {
  // Load the database with a healthy device. Unclustered query
  // modification reads R from a heap file.
  const db::AccessMethod method = options_.qm_plan == Strategy::kQmUnclustered
                                      ? db::AccessMethod::kHeap
                                      : db::AccessMethod::kClusteredBTree;
  VIEWMAT_ASSIGN_OR_RETURN(rel_, scenario_.LoadBase(&catalog_, "R", method));
  const int model = options_.model;
  if (model == 2) {
    VIEWMAT_ASSIGN_OR_RETURN(r2_, scenario_.LoadR2(&catalog_, "R2"));
  }
  sp_def_ = model == 1 ? MakeSpDef(&scenario_, rel_) : view::SelectProjectDef();
  join_def_ =
      model == 2 ? MakeJoinDef(&scenario_, rel_, r2_) : view::JoinDef();

  // A durable driver has a recovery manager for every strategy: the
  // RM-committing ones route their transactions through it;
  // deferred/hybrid only borrow its LSN allocator so their AD logs join
  // the unified LSN space.
  storage::LsnAllocator* lsns = nullptr;
  if (options_.durable) {
    db::RecoveryManager::Options rm_options;
    rm_options.checkpoint_every = options_.checkpoint_every;
    rm_options.sync_on_commit = !options_.group_commit;
    recovery_ = std::make_unique<db::RecoveryManager>(&pool_, rm_options);
    recovery_->Register(rel_);
    if (r2_ != nullptr) recovery_->Register(r2_);
    lsns = recovery_->wal()->lsn_allocator();
  }
  const hr::AdFile::Options ad_options = AdOptions(
      options_.params, options_.durable, lsns, options_.group_commit);

  // Builds the stored copy, then installs the strategy.
  const auto install = [this](auto strategy) {
    const Status st = strategy->InitializeFromBase();
    strategy_ = std::move(strategy);
    return st;
  };
  const bool m1 = model == 1;
  switch (options_.kind) {
    case StrategyKind::kQueryModification:
      if (m1) {
        strategy_ = std::make_unique<view::QmSelectProjectStrategy>(
            sp_def_, &tracker_,
            /*force_sequential=*/options_.qm_plan == Strategy::kQmSequential);
      } else if (model == 2) {
        strategy_ = std::make_unique<view::QmJoinStrategy>(join_def_, &tracker_);
      } else {
        strategy_ = std::make_unique<view::RecomputeAggregateStrategy>(
            MakeAggDef(&scenario_, rel_), &tracker_);
      }
      break;
    case StrategyKind::kImmediate:
      if (model == 3) {
        VIEWMAT_RETURN_IF_ERROR(
            install(std::make_unique<view::ImmediateAggregateStrategy>(
                MakeAggDef(&scenario_, rel_), &tracker_)));
      } else {
        VIEWMAT_RETURN_IF_ERROR(install(
            m1 ? std::make_unique<view::ImmediateStrategy>(sp_def_, &tracker_)
               : std::make_unique<view::ImmediateStrategy>(join_def_,
                                                            &tracker_)));
      }
      break;
    case StrategyKind::kDeferred:
      if (model == 3) {
        VIEWMAT_RETURN_IF_ERROR(
            install(std::make_unique<view::DeferredAggregateStrategy>(
                MakeAggDef(&scenario_, rel_), ad_options, &tracker_)));
      } else {
        VIEWMAT_RETURN_IF_ERROR(
            install(m1 ? std::make_unique<view::DeferredStrategy>(
                             sp_def_, ad_options, &tracker_)
                       : std::make_unique<view::DeferredStrategy>(
                             join_def_, ad_options, &tracker_)));
      }
      break;
    case StrategyKind::kSnapshot: {
      // Refresh before every query: the torture oracle demands exact
      // answers, so the staleness the snapshot scheme normally tolerates is
      // configured away and only its crash behavior is under test.
      view::SnapshotStrategy::Options snap_options;
      snap_options.refresh_every_queries = 1;
      auto snapshot = std::make_unique<view::SnapshotStrategy>(
          sp_def_, snap_options, &tracker_);
      snapshot_ = snapshot.get();
      VIEWMAT_RETURN_IF_ERROR(install(std::move(snapshot)));
      break;
    }
    case StrategyKind::kRecomputeOnChange:
      VIEWMAT_RETURN_IF_ERROR(
          install(std::make_unique<view::RecomputeOnChangeStrategy>(
              sp_def_, &tracker_)));
      break;
    case StrategyKind::kHybrid:
      VIEWMAT_RETURN_IF_ERROR(install(std::make_unique<view::HybridStrategy>(
          sp_def_, ad_options, &tracker_)));
      break;
  }
  if (recovery_ != nullptr && !journaled()) {
    strategy_->AttachRecovery(recovery_.get());
  }
  return pool_.FlushAll();
}

Status StrategyDriver::OnTransaction(const db::Transaction& txn) {
  return strategy_->OnTransaction(txn);
}

Status StrategyDriver::Query(int64_t lo, int64_t hi,
                             const view::MaterializedView::CountedVisitor& visit) {
  // The torture oracle demands exact answers; refresh away the staleness
  // the snapshot scheme normally tolerates so only its crash behavior (and
  // the refresh path itself) is under test.
  if (snapshot_ != nullptr && snapshot_->stale_transactions() > 0) {
    VIEWMAT_RETURN_IF_ERROR(snapshot_->RefreshNow());
  }
  return strategy_->Query(lo, hi, visit);
}

Status StrategyDriver::Recover() { return strategy_->Recover(); }

Status StrategyDriver::SyncWal() { return strategy_->SyncLog(); }

Status StrategyDriver::DiscardVolatileWal() {
  return strategy_->DiscardVolatileLog();
}

Status StrategyDriver::Converge() {
  // Converge is a live quiesce point, not crash recovery: every
  // acknowledged commit has already been applied to volatile state, so the
  // log must be made durable BEFORE Recover() redoes the durable history.
  // Under group commit a buffered tail leaves the base AHEAD of the
  // durable log; redoing just the durable prefix onto it resurrects
  // intermediate tuple versions whose covering updates are still volatile.
  // After a real crash the harness discards the volatile tail first
  // (DiscardVolatileWal), which makes this sync a no-op rather than a
  // resurrection.
  VIEWMAT_RETURN_IF_ERROR(SyncWal());
  VIEWMAT_RETURN_IF_ERROR(Recover());
  return strategy_->Refresh();
}

uint64_t StrategyDriver::txn_seq() const { return strategy_->txn_seq(); }

uint64_t StrategyDriver::committed_txn_high_water() const {
  return strategy_->committed_txn_high_water();
}

Status StrategyDriver::VisibleBase(ViewMultiset* out) const {
  out->clear();
  return strategy_->ScanVisibleBase(rel_, [&](const db::Tuple& t) {
    (*out)[t] += 1;
    return true;
  });
}

uint64_t StrategyDriver::recoveries() const { return strategy_->recoveries(); }

uint64_t StrategyDriver::degraded_queries() const {
  return strategy_->degraded_queries();
}

}  // namespace viewmat::sim
