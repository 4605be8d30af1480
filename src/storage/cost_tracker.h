#ifndef VIEWMAT_STORAGE_COST_TRACKER_H_
#define VIEWMAT_STORAGE_COST_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

#include "common/logging.h"
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

class CostTracker;

/// A thread-local accumulation buffer for one in-flight operation: the flat
/// counters, the attribution matrix, and the component/phase tags that
/// would otherwise live on the tracker itself. While a shard is bound to a
/// tracker on a thread (ShardScope), every charge and tag swap made from
/// that thread lands in the shard instead of the tracker, so any number of
/// worker threads can execute read-only operations against shared storage
/// structures concurrently without touching the tracker's single-owner
/// state. Shards are merged back into the tracker in commit-LSN order
/// (CostTracker::MergeShard), which reproduces, counter for counter, the
/// totals a serial execution would have accumulated — the invariant the
/// server's determinism tests pin down (Σ shards == tracker totals).
///
/// Cache-line aligned so per-worker shards in an array never false-share.
struct alignas(64) CostShard {
  CostCounters flat;
  AttributedCounters attributed;
  Component component = Component::kUnattributed;
  Phase phase = Phase::kUnphased;

  CostCounters& Cell() { return attributed.at(component, phase); }
  /// Clears the charges and tags for reuse by the next operation.
  void Reset() {
    flat = CostCounters();
    attributed = AttributedCounters();
    component = Component::kUnattributed;
    phase = Phase::kUnphased;
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
/// be meaningless as well as racy). Debug builds assert the contract: the
/// first charging thread claims the tracker, and any charge or tag swap
/// from a different thread trips a VIEWMAT_DCHECK. Reset() releases the
/// claim along with the counters; TransferOwnership() releases just the
/// claim, the explicit handoff the server's serialized commit pipeline
/// uses to move a tracker between worker threads one at a time.
///
/// Sharded mode is the one sanctioned extension of that contract: a worker
/// thread that binds a CostShard (ShardScope) routes all of its charges and
/// tag swaps into the shard — private to that thread — and the server
/// merges shards back under its retirement mutex in commit-LSN order
/// (MergeShard). The main counters are then only ever mutated under that
/// mutex, which is what lets read-only operations physically overlap while
/// every logical number stays byte-identical to the serial execution.
class CostTracker : public obs::VirtualClock {
 public:
  CostTracker(double c1 = 1.0, double c2 = 30.0, double c3 = 1.0)
      : c1_(c1), c2_(c2), c3_(c3) {}

  void ChargeRead(uint64_t pages = 1) {
    if (CostShard* s = ActiveShard()) {
      s->flat.disk_reads += pages;
      s->Cell().disk_reads += pages;
      return;
    }
    VIEWMAT_DCHECK(CalledByOwner());
    counters_.disk_reads += pages;
    Cell().disk_reads += pages;
  }
  void ChargeWrite(uint64_t pages = 1) {
    if (CostShard* s = ActiveShard()) {
      s->flat.disk_writes += pages;
      s->Cell().disk_writes += pages;
      return;
    }
    VIEWMAT_DCHECK(CalledByOwner());
    counters_.disk_writes += pages;
    Cell().disk_writes += pages;
  }
  void ChargeScreen(uint64_t tuples = 1) {
    if (CostShard* s = ActiveShard()) {
      s->flat.screen_tests += tuples;
      s->Cell().screen_tests += tuples;
      return;
    }
    VIEWMAT_DCHECK(CalledByOwner());
    counters_.screen_tests += tuples;
    Cell().screen_tests += tuples;
  }
  void ChargeTupleCpu(uint64_t tuples = 1) {
    if (CostShard* s = ActiveShard()) {
      s->flat.tuple_cpu_ops += tuples;
      s->Cell().tuple_cpu_ops += tuples;
      return;
    }
    VIEWMAT_DCHECK(CalledByOwner());
    counters_.tuple_cpu_ops += tuples;
    Cell().tuple_cpu_ops += tuples;
  }
  void ChargeAdSetOp(uint64_t tuples = 1) {
    if (CostShard* s = ActiveShard()) {
      s->flat.ad_set_ops += tuples;
      s->Cell().ad_set_ops += tuples;
      return;
    }
    VIEWMAT_DCHECK(CalledByOwner());
    counters_.ad_set_ops += tuples;
    Cell().ad_set_ops += tuples;
  }

  const CostCounters& counters() const { return counters_; }
  const AttributedCounters& attributed() const { return attributed_; }
  void Reset() {
    counters_ = CostCounters();
    attributed_ = AttributedCounters();
    owner_.store(std::thread::id(), std::memory_order_relaxed);
  }

  /// Releases the current thread's ownership claim without touching the
  /// counters, so the next charging thread becomes the owner. This is the
  /// explicit handoff that generalizes the single-owner contract to "one
  /// thread at a time": the server layer's commit pipeline calls it at each
  /// turn boundary, where an external mutex already serializes the old and
  /// new owner (that mutex — not this relaxed store — provides the
  /// happens-before edge for the counter values themselves). Calling it
  /// while another thread may still charge concurrently is a contract
  /// violation the DCHECK cannot catch.
  void TransferOwnership() {
    owner_.store(std::thread::id(), std::memory_order_relaxed);
  }

  Component component() const { return component_; }
  Phase phase() const { return phase_; }
  /// Prefer ScopedComponent/ScopedPhase; these exist for the RAII guards.
  /// With a shard bound on this thread the tags live on the shard, so
  /// concurrent readers each carry their own attribution context.
  Component SwapComponent(Component c) {
    if (CostShard* s = ActiveShard()) {
      const Component prev = s->component;
      s->component = c;
      return prev;
    }
    VIEWMAT_DCHECK(CalledByOwner());
    const Component prev = component_;
    component_ = c;
    return prev;
  }
  Phase SwapPhase(Phase p) {
    if (CostShard* s = ActiveShard()) {
      const Phase prev = s->phase;
      s->phase = p;
      return prev;
    }
    VIEWMAT_DCHECK(CalledByOwner());
    const Phase prev = phase_;
    phase_ = p;
    return prev;
  }

  /// Folds one operation's shard into the tracker totals. The caller must
  /// serialize merges externally (the server's commit pipeline holds its
  /// retirement mutex) and must merge in commit-LSN order — charges are
  /// additive, so in-order merges reproduce the serial execution's running
  /// totals exactly. No ownership claim is taken: the external mutex, not
  /// the owner CAS, provides the happens-before edges here.
  void MergeShard(const CostShard& shard) {
    counters_ += shard.flat;
    attributed_ += shard.attributed;
    published_ms_.store(Ms(counters_), std::memory_order_relaxed);
  }

  /// Enters/leaves sharded mode. While in sharded mode NowMs() serves the
  /// model clock from an atomic published at each MergeShard — worker
  /// threads may read the clock while another thread merges, and the main
  /// counters are off-limits outside the retirement mutex. Call Begin after
  /// the last direct charge and End after the last worker has exited.
  void BeginShardedMode() {
    published_ms_.store(Ms(counters_), std::memory_order_relaxed);
    sharded_mode_.store(true, std::memory_order_release);
  }
  void EndShardedMode() {
    sharded_mode_.store(false, std::memory_order_release);
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
  /// VirtualClock: the tracer's timestamps are model milliseconds. In
  /// sharded mode the clock is the atomically published value from the
  /// last shard merge (so any worker may read it race-free); otherwise it
  /// is computed live from the single-owner counters.
  double NowMs() const override {
    if (sharded_mode_.load(std::memory_order_acquire)) {
      return published_ms_.load(std::memory_order_relaxed);
    }
    return TotalMs();
  }

  double c1() const { return c1_; }
  double c2() const { return c2_; }
  double c3() const { return c3_; }

 private:
  friend class ShardScope;

  CostCounters& Cell() { return attributed_.at(component_, phase_); }

  /// The shard bound to this tracker on the calling thread, or null. One
  /// thread-local slot suffices: a thread executes against one tracker at
  /// a time, and the tracker pointer check keeps concurrent simulations
  /// with their own trackers (parallel sweeps) out of each other's shards.
  CostShard* ActiveShard() const {
    return tls_bound_tracker_ == this ? tls_shard_ : nullptr;
  }

  inline static thread_local CostShard* tls_shard_ = nullptr;
  inline static thread_local const CostTracker* tls_bound_tracker_ = nullptr;

  /// True iff the calling thread owns this tracker. The first caller
  /// claims an unowned tracker (CAS from the default thread::id), so the
  /// check is self-initializing and costs one relaxed load on the owner's
  /// path. Debug-only via VIEWMAT_DCHECK at the call sites.
  bool CalledByOwner() {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected;  // default id = unowned
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return true;
    }
    return expected == self;
  }

  double c1_;
  double c2_;
  double c3_;
  CostCounters counters_;
  AttributedCounters attributed_;
  Component component_ = Component::kUnattributed;
  Phase phase_ = Phase::kUnphased;
  obs::Tracer* tracer_ = nullptr;
  std::atomic<std::thread::id> owner_{};  ///< default id until first charge
  std::atomic<bool> sharded_mode_{false};
  std::atomic<double> published_ms_{0.0};  ///< NowMs() while sharded
};

/// RAII binding of a CostShard to (tracker, calling thread): charges and
/// tag swaps made on this thread while the scope is alive land in the
/// shard. Restores the previous binding on destruction so scopes nest
/// (e.g. a retirement-time charge inside a worker loop). The shard is not
/// reset — callers Reset() it per operation so one per-worker shard can be
/// reused across ops.
class ShardScope {
 public:
  ShardScope(CostTracker* tracker, CostShard* shard)
      : prev_shard_(CostTracker::tls_shard_),
        prev_tracker_(CostTracker::tls_bound_tracker_) {
    CostTracker::tls_shard_ = shard;
    CostTracker::tls_bound_tracker_ = tracker;
  }
  ~ShardScope() {
    CostTracker::tls_shard_ = prev_shard_;
    CostTracker::tls_bound_tracker_ = prev_tracker_;
  }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  CostShard* prev_shard_;
  const CostTracker* prev_tracker_;
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
