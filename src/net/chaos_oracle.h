#ifndef VIEWMAT_NET_CHAOS_ORACLE_H_
#define VIEWMAT_NET_CHAOS_ORACLE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "costmodel/params.h"
#include "sim/strategy_driver.h"

namespace viewmat::net {

/// Fault profiles the chaos oracle sweeps. Each profile arms one class of
/// transport mischief (plus a crash composite); the oracle's invariants
/// must hold under every one of them.
enum class ChaosProfile {
  kClean,      ///< healthy network — the baseline that must be flawless
  kDrop,       ///< messages vanish (budgeted)
  kDuplicate,  ///< messages delivered twice
  kReorder,    ///< latency inversions let later messages overtake
  kDelay,      ///< large per-message extra latency
  kPartition,  ///< scripted partition windows (incl. one-way links and the
               ///< refresh path)
  kCrashPartition,  ///< partitions plus scripted server crashes
};

inline constexpr ChaosProfile kAllChaosProfiles[] = {
    ChaosProfile::kClean,     ChaosProfile::kDrop,
    ChaosProfile::kDuplicate, ChaosProfile::kReorder,
    ChaosProfile::kDelay,     ChaosProfile::kPartition,
    ChaosProfile::kCrashPartition,
};

const char* ChaosProfileName(ChaosProfile profile);

struct ChaosOracleOptions {
  sim::StrategyKind kind = sim::StrategyKind::kDeferred;
  int model = 1;
  costmodel::Params params;  ///< shaped by TortureParams
  ChaosProfile profile = ChaosProfile::kClean;
  uint64_t seed = 1;  ///< base seed; run r uses a derived seed
  int runs = 4;       ///< seeded runs to execute for this cell
  size_t jobs = 1;    ///< worker fan-out across runs (merge is ordered)
  int clients = 3;
  int ops_per_client = 12;
  /// Probability an op is a commit (the rest are range queries).
  double update_fraction = 0.7;
  /// Event-loop cap per run — the liveness bound: a protocol that retries
  /// forever trips it and the run is declared not live.
  size_t max_events = 400000;
};

/// Aggregated verdict over all runs of one (profile, strategy, model)
/// cell. The invariant counters on the right of the struct MUST all be
/// zero for the cell to pass (see Clean()).
struct ChaosOracleResult {
  // Volume / behavior counters (informational).
  uint64_t runs = 0;
  uint64_t acked_commits = 0;
  uint64_t acked_queries = 0;
  uint64_t degraded_query_acks = 0;
  uint64_t client_retries = 0;
  uint64_t redelivered_hits = 0;
  uint64_t rejected_commits = 0;
  uint64_t ambiguous_resolved = 0;
  uint64_t shed_requests = 0;
  uint64_t server_crashes = 0;
  uint64_t server_recoveries = 0;
  uint64_t journal_reconciled = 0;
  uint64_t session_checkpoints = 0;
  uint64_t messages_sent = 0;
  uint64_t faults_injected = 0;

  // Invariant violations (each must stay zero).
  uint64_t liveness_failures = 0;   ///< run never drained / clients stuck
  uint64_t lost_commits = 0;        ///< acked commit missing from journal
  uint64_t duplicate_applications = 0;  ///< journal holds a (session,seq) twice
  uint64_t state_mismatches = 0;    ///< final base ≠ delta-ledger replay
  uint64_t replay_mismatches = 0;   ///< digest ≠ serial replay of journal
  uint64_t query_mismatches = 0;    ///< acked query ≠ its journal prefix
  uint64_t corrupt_runs = 0;        ///< engine never quiesced

  /// True iff every invariant held in every run.
  bool Clean() const {
    return liveness_failures == 0 && lost_commits == 0 &&
           duplicate_applications == 0 && state_mismatches == 0 &&
           replay_mismatches == 0 && query_mismatches == 0 &&
           corrupt_runs == 0;
  }

  std::string ToString() const;
};

/// Runs `options.runs` seeded chaos runs of one fault-profile cell: a
/// SessionServer-fronted engine, N retrying clients, and a FaultyNetwork
/// armed per the profile — then audits the exactly-once contract:
///
///  1. liveness — every client finishes and the event queue drains;
///  2. ledger — the set of client-acknowledged commits equals the server
///     journal exactly (nothing lost, nothing applied twice);
///  3. state — the final visible base equals the initial state advanced by
///     the journal's deltas in order, and a serial replay of the journal
///     through a fresh engine (sim::ReplayDigest) passes the golden triple
///     and converges to a state-digest match;
///  4. reads — every acknowledged query answer equals the exact expected
///     answer at the journal prefix it was served at.
///
/// Runs fan out over `options.jobs` workers and merge in run order, so the
/// result is identical at any worker count.
StatusOr<ChaosOracleResult> RunChaosOracle(const ChaosOracleOptions& options);

}  // namespace viewmat::net

#endif  // VIEWMAT_NET_CHAOS_ORACLE_H_
