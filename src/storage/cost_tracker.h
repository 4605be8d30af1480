#ifndef VIEWMAT_STORAGE_COST_TRACKER_H_
#define VIEWMAT_STORAGE_COST_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/logging.h"
#include "common/owner_check.h"
#include "obs/trace.h"

namespace viewmat::storage {

/// Storage structure a charge is attributed to. Every structure tags its
/// public operations with a ScopedComponent, so each disk I/O and CPU
/// charge lands in exactly one component bucket. kUnattributed catches
/// charges made outside any tagged scope (e.g. strategy-level per-tuple
/// work that belongs to no one structure).
enum class Component : uint8_t {
  kUnattributed = 0,
  kHeap,        ///< heap files (sequential/unclustered storage)
  kBptree,      ///< clustered B+-trees (base relations, view copies)
  kHashIndex,   ///< static hash files (R2, the AD differential file)
  kAdLog,       ///< the AD file's write-ahead log
  kBloom,       ///< Bloom screen upkeep (rebuilds)
  kBufferPool,  ///< explicit flush/evict traffic
  kWal,         ///< the unified redo WAL (storage/wal.h)
};
inline constexpr size_t kNumComponents = 8;

inline const char* ComponentName(Component c) {
  switch (c) {
    case Component::kUnattributed: return "unattributed";
    case Component::kHeap: return "heap";
    case Component::kBptree: return "bptree";
    case Component::kHashIndex: return "hash_index";
    case Component::kAdLog: return "ad_log";
    case Component::kBloom: return "bloom";
    case Component::kBufferPool: return "buffer_pool";
    case Component::kWal: return "wal";
  }
  return "unknown";
}

/// Workload phase a charge belongs to. Strategies tag their entry points,
/// so the same B+-tree descent is separable into update-side and
/// query-side cost — the distinction the paper's TOTAL_* formulas draw.
enum class Phase : uint8_t {
  kUnphased = 0,
  kUpdateApply,      ///< applying an update transaction
  kRefresh,          ///< deferred refresh (fold + view patch)
  kRefreshRecovery,  ///< crash recovery / roll-forward of a refresh
  kQuery,            ///< serving a view query
  kScreen,           ///< predicate screening (t-lock stage 2)
};
inline constexpr size_t kNumPhases = 6;

inline const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kUnphased: return "unphased";
    case Phase::kUpdateApply: return "update_apply";
    case Phase::kRefresh: return "refresh";
    case Phase::kRefreshRecovery: return "refresh_recovery";
    case Phase::kQuery: return "query";
    case Phase::kScreen: return "screen";
  }
  return "unknown";
}

/// Raw operation counters accumulated by the simulator. The analytical model
/// charges C2 per disk I/O, C1 per predicate screen / per-tuple CPU action,
/// and C3 per tuple of in-memory A/D set upkeep; keeping the counters
/// separate lets experiments report both counts and model milliseconds.
struct CostCounters {
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t screen_tests = 0;   ///< stage-2 satisfiability substitutions (C1)
  uint64_t tuple_cpu_ops = 0;  ///< per-tuple matching/handling work (C1)
  uint64_t ad_set_ops = 0;     ///< per-tuple A/D structure maintenance (C3)

  CostCounters operator-(const CostCounters& rhs) const {
    CostCounters d;
    d.disk_reads = disk_reads - rhs.disk_reads;
    d.disk_writes = disk_writes - rhs.disk_writes;
    d.screen_tests = screen_tests - rhs.screen_tests;
    d.tuple_cpu_ops = tuple_cpu_ops - rhs.tuple_cpu_ops;
    d.ad_set_ops = ad_set_ops - rhs.ad_set_ops;
    return d;
  }
  CostCounters& operator+=(const CostCounters& rhs) {
    disk_reads += rhs.disk_reads;
    disk_writes += rhs.disk_writes;
    screen_tests += rhs.screen_tests;
    tuple_cpu_ops += rhs.tuple_cpu_ops;
    ad_set_ops += rhs.ad_set_ops;
    return *this;
  }
  bool operator==(const CostCounters& rhs) const {
    return disk_reads == rhs.disk_reads && disk_writes == rhs.disk_writes &&
           screen_tests == rhs.screen_tests &&
           tuple_cpu_ops == rhs.tuple_cpu_ops && ad_set_ops == rhs.ad_set_ops;
  }
  uint64_t disk_ios() const { return disk_reads + disk_writes; }
  bool empty() const {
    return disk_reads == 0 && disk_writes == 0 && screen_tests == 0 &&
           tuple_cpu_ops == 0 && ad_set_ops == 0;
  }
};

/// The component × phase attribution matrix. Every charge lands in exactly
/// one cell (the component/phase active when it was made), so summing all
/// cells reproduces the flat totals exactly — the invariant the
/// observability tests pin down.
struct AttributedCounters {
  CostCounters cells[kNumComponents][kNumPhases];

  CostCounters& at(Component c, Phase p) {
    return cells[static_cast<size_t>(c)][static_cast<size_t>(p)];
  }
  const CostCounters& at(Component c, Phase p) const {
    return cells[static_cast<size_t>(c)][static_cast<size_t>(p)];
  }
  CostCounters ComponentTotal(Component c) const {
    CostCounters total;
    for (size_t p = 0; p < kNumPhases; ++p) {
      total += cells[static_cast<size_t>(c)][p];
    }
    return total;
  }
  CostCounters PhaseTotal(Phase p) const {
    CostCounters total;
    for (size_t c = 0; c < kNumComponents; ++c) {
      total += cells[c][static_cast<size_t>(p)];
    }
    return total;
  }
  CostCounters Total() const {
    CostCounters total;
    for (size_t c = 0; c < kNumComponents; ++c) {
      for (size_t p = 0; p < kNumPhases; ++p) total += cells[c][p];
    }
    return total;
  }
  /// Cell-wise delta — how the timeline recorder turns two snapshots of a
  /// monotonically growing matrix into one window's worth of charges.
  AttributedCounters operator-(const AttributedCounters& rhs) const {
    AttributedCounters d;
    for (size_t c = 0; c < kNumComponents; ++c) {
      for (size_t p = 0; p < kNumPhases; ++p) {
        d.cells[c][p] = cells[c][p] - rhs.cells[c][p];
      }
    }
    return d;
  }
  AttributedCounters& operator+=(const AttributedCounters& rhs) {
    for (size_t c = 0; c < kNumComponents; ++c) {
      for (size_t p = 0; p < kNumPhases; ++p) cells[c][p] += rhs.cells[c][p];
    }
    return *this;
  }
};

/// Accumulates operation counts and converts them to model milliseconds
/// using the paper's unit costs. One tracker is shared by a SimulatedDisk
/// and every component above it, so a workload run yields a single total
/// directly comparable to the analytical TOTAL_* formulas.
///
/// Observability: alongside the flat totals, every charge is attributed to
/// the (Component, Phase) pair active at the instant of the charge —
/// storage structures tag their operations with ScopedComponent, strategies
/// tag their entry points with ScopedPhase. Attribution never changes the
/// totals; it only explains them. The tracker is also the span tracer's
/// virtual clock (model milliseconds), and carries an optional Tracer
/// pointer so instrumentation deep in the stack can emit spans without new
/// plumbing.
///
/// Thread safety: none — by design. A CostTracker is single-owner: it
/// belongs to exactly one simulation, and every charge/swap/read happens on
/// the thread running that simulation. Parallel sweeps get one tracker per
/// task, never a shared one (model time is per-run anyway, so sharing would
/// be meaningless as well as racy). Debug builds assert the contract with
/// a common::OwnerCheck: the first charging thread claims the tracker, and
/// any charge or tag swap from a different thread trips a VIEWMAT_DCHECK.
/// Reset() releases the claim along with the counters.
class CostTracker : public obs::VirtualClock {
 public:
  CostTracker(double c1 = 1.0, double c2 = 30.0, double c3 = 1.0)
      : c1_(c1), c2_(c2), c3_(c3) {}

  void ChargeRead(uint64_t pages = 1) {
    VIEWMAT_DCHECK(owner_.CalledByOwner());
    counters_.disk_reads += pages;
    Cell().disk_reads += pages;
  }
  void ChargeWrite(uint64_t pages = 1) {
    VIEWMAT_DCHECK(owner_.CalledByOwner());
    counters_.disk_writes += pages;
    Cell().disk_writes += pages;
  }
  void ChargeScreen(uint64_t tuples = 1) {
    VIEWMAT_DCHECK(owner_.CalledByOwner());
    counters_.screen_tests += tuples;
    Cell().screen_tests += tuples;
  }
  void ChargeTupleCpu(uint64_t tuples = 1) {
    VIEWMAT_DCHECK(owner_.CalledByOwner());
    counters_.tuple_cpu_ops += tuples;
    Cell().tuple_cpu_ops += tuples;
  }
  void ChargeAdSetOp(uint64_t tuples = 1) {
    VIEWMAT_DCHECK(owner_.CalledByOwner());
    counters_.ad_set_ops += tuples;
    Cell().ad_set_ops += tuples;
  }

  const CostCounters& counters() const { return counters_; }
  const AttributedCounters& attributed() const { return attributed_; }
  void Reset() {
    counters_ = CostCounters();
    attributed_ = AttributedCounters();
    owner_.Release();
  }

  Component component() const { return component_; }
  Phase phase() const { return phase_; }
  /// Prefer ScopedComponent/ScopedPhase; these exist for the RAII guards.
  Component SwapComponent(Component c) {
    VIEWMAT_DCHECK(owner_.CalledByOwner());
    const Component prev = component_;
    component_ = c;
    return prev;
  }
  Phase SwapPhase(Phase p) {
    VIEWMAT_DCHECK(owner_.CalledByOwner());
    const Phase prev = phase_;
    phase_ = p;
    return prev;
  }

  /// Optional span tracer riding on this tracker (null = tracing off).
  /// The tracer is not owned; callers keep it alive for the tracker's use.
  obs::Tracer* tracer() const { return tracer_; }
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) tracer_->SetClock(this);
  }

  /// Model milliseconds for a counter delta.
  double Ms(const CostCounters& c) const {
    return c2_ * static_cast<double>(c.disk_ios()) +
           c1_ * static_cast<double>(c.screen_tests + c.tuple_cpu_ops) +
           c3_ * static_cast<double>(c.ad_set_ops);
  }
  /// Model milliseconds accumulated since construction or Reset().
  double TotalMs() const { return Ms(counters_); }
  /// VirtualClock: the tracer's timestamps are model milliseconds.
  double NowMs() const override { return TotalMs(); }

  double c1() const { return c1_; }
  double c2() const { return c2_; }
  double c3() const { return c3_; }

 private:
  CostCounters& Cell() { return attributed_.at(component_, phase_); }

  double c1_;
  double c2_;
  double c3_;
  CostCounters counters_;
  AttributedCounters attributed_;
  Component component_ = Component::kUnattributed;
  Phase phase_ = Phase::kUnphased;
  obs::Tracer* tracer_ = nullptr;
  common::OwnerCheck owner_;  ///< claimed by the first charge
};

/// RAII component tag: charges made while alive are attributed to `c`.
/// Restores the previous tag on destruction, so nested structures (a
/// B+-tree descent inside an AD-file probe) attribute to the innermost
/// tagged structure. Null tracker is a no-op.
class ScopedComponent {
 public:
  ScopedComponent(CostTracker* tracker, Component c) : tracker_(tracker) {
    if (tracker_ != nullptr) prev_ = tracker_->SwapComponent(c);
  }
  ~ScopedComponent() {
    if (tracker_ != nullptr) tracker_->SwapComponent(prev_);
  }
  ScopedComponent(const ScopedComponent&) = delete;
  ScopedComponent& operator=(const ScopedComponent&) = delete;

 private:
  CostTracker* tracker_;
  Component prev_ = Component::kUnattributed;
};

/// RAII phase tag; same contract as ScopedComponent.
class ScopedPhase {
 public:
  ScopedPhase(CostTracker* tracker, Phase p) : tracker_(tracker) {
    if (tracker_ != nullptr) prev_ = tracker_->SwapPhase(p);
  }
  ~ScopedPhase() {
    if (tracker_ != nullptr) tracker_->SwapPhase(prev_);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  CostTracker* tracker_;
  Phase prev_ = Phase::kUnphased;
};

/// The tracer attached to `tracker`, or null — for span emission sites
/// that only hold a possibly-null tracker.
inline obs::Tracer* TracerOf(CostTracker* tracker) {
  return tracker != nullptr ? tracker->tracer() : nullptr;
}

}  // namespace viewmat::storage

#endif  // VIEWMAT_STORAGE_COST_TRACKER_H_
