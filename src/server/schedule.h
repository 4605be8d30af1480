#ifndef VIEWMAT_SERVER_SCHEDULE_H_
#define VIEWMAT_SERVER_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "server/lock_manager.h"
#include "sim/oracle.h"
#include "sim/strategy_driver.h"

namespace viewmat::server {

/// Relation ids in every lock set: 0 = R/R1 (the updated relation),
/// 1 = R2 (read-only join side, model 2 only).
inline constexpr uint32_t kLockRelBase = 0;
inline constexpr uint32_t kLockRelR2 = 1;

enum class OpKind : uint8_t { kUpdate, kQuery };

/// One client operation in the global schedule. The sequence index is the
/// transaction id, the lock-grant priority, and the commit LSN order all at
/// once: the seeded sequencer fixes it before any thread runs, which is
/// what makes every downstream number worker-count-independent.
struct ScheduledOp {
  uint64_t seq = 0;
  uint32_t client = 0;
  OpKind kind = OpKind::kUpdate;

  /// Updates: the victim list in generation order as (base key, new v).
  /// Old values are *not* stored — they are re-derived from the shadow at
  /// execution (and at serial replay) so the same op description stays
  /// valid for whichever committed prefix precedes it.
  sim::Victims victims;
  /// Updates: the client aborts voluntarily after acquiring its locks —
  /// the lifecycle's begin/acquire/abort path, with undo via Abort().
  bool voluntary_abort = false;

  /// Queries: the range and the exact multiset the view must return given
  /// every earlier non-aborted update committed (true by construction in
  /// the sequence-ordered commit pipeline).
  int64_t lo = 0;
  int64_t hi = 0;
  sim::ViewMultiset expected;

  /// The two-phase lock set: writers take X point intervals on their net
  /// A/D keys; readers take S on (queried range ∩ the view's t-lock
  /// screening intervals), so a reader outside the screen never conflicts.
  LockSet locks;

  /// Filled by AnalyzeSchedule: sequence indices of earlier in-window ops
  /// of other clients whose lock sets conflict with this one.
  std::vector<uint32_t> conflict_preds;
  uint32_t conflicts_rw = 0;  ///< reader-writer conflict edges
  uint32_t conflicts_ww = 0;  ///< writer-writer conflict edges
};

/// How clients' key choices collide — the knob the scaling bench sweeps.
/// Profiles shape WHERE a client's updates and queries land; everything
/// else about the schedule (op mix, interleaving, RNG streams) is shared,
/// so profiles are comparable run-to-run at the same seed.
enum class ContentionProfile : uint8_t {
  /// Keys drawn uniformly over the whole relation — the historical default.
  /// This path reproduces the pre-profile RNG stream byte-for-byte, so
  /// existing seeds keep their exact schedules.
  kUniform,
  /// Each client confined to its own contiguous key partition: writer
  /// lock sets never overlap across clients, the embarrassingly-parallel
  /// best case for the striped lock table.
  kDisjoint,
  /// Every client hammers the same small key prefix (n/8): the worst case,
  /// where most ops contend for the same stripes.
  kHotRange,
};

const char* ContentionProfileName(ContentionProfile p);

struct ScheduleOptions {
  uint32_t clients = 4;
  uint32_t ops_per_client = 8;
  /// Probability an op is an update transaction (else a view query).
  double update_fraction = 0.5;
  /// Probability an update client aborts voluntarily after lock acquire.
  double abort_fraction = 0.125;
  uint64_t seed = 1;
  ContentionProfile contention = ContentionProfile::kUniform;
};

struct Schedule {
  ScheduleOptions options;
  std::vector<ScheduledOp> ops;
  uint64_t planned_updates = 0;
  uint64_t planned_aborts = 0;
  uint64_t planned_queries = 0;
};

/// Builds the deterministic global schedule for `driver`'s scenario: one
/// seeded stream per client (so a client's ops do not depend on the
/// interleaving), a seeded sequencer interleaving the active clients, and
/// per-query expected answers from a generation shadow advanced by every
/// non-aborted update in sequence order.
Schedule BuildSchedule(const ScheduleOptions& options,
                       sim::StrategyDriver* driver);

/// Advances `shadow` by the op's writes (call only on commit). Execution
/// stages the same writes with sim::StagedTxn.
void AdvanceShadow(const ScheduledOp& op, sim::ShadowOracle* shadow);

/// Deterministic lock-conflict analysis: each op is tested against the
/// previous `clients - 1` ops of other clients (the closed-loop in-flight
/// window), filling conflict_preds/conflicts_rw/conflicts_ww. Returns the
/// total number of conflict edges.
uint64_t AnalyzeSchedule(Schedule* schedule);

}  // namespace viewmat::server

#endif  // VIEWMAT_SERVER_SCHEDULE_H_
