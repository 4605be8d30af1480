#include "server/schedule.h"

#include <algorithm>
#include <utility>

#include "common/random.h"
#include "db/predicate.h"
#include "workload/workload.h"

namespace viewmat::server {

namespace {

using workload::Scenario;

uint64_t ClientSeed(uint64_t base, uint32_t client) {
  uint64_t x = base ^ (0x9e3779b97f4a7c15ull * (client + 2));
  x ^= x >> 33;
  return x | 1;
}

/// The S-side interval set for a query [lo, hi]: the queried range clipped
/// to the view's t-lock screening intervals (the paper's rule index derived
/// from Predicate::ImpliedRangeSet on the clustering key). Keys outside the
/// screen cannot affect the view, so readers do not lock them.
db::IntervalSet ReaderIntervals(const db::IntervalSet& screen, int64_t lo,
                                int64_t hi) {
  return db::IntervalSet::Intersect(screen,
                                    db::IntervalSet(db::Interval{lo, hi}));
}

/// The X-side interval set for an update: one point interval per distinct
/// victim key (net A/D keys — old and new tuples share the key, only the
/// payload changes), normalized once.
db::IntervalSet WriterIntervals(const sim::Victims& victims) {
  std::vector<db::Interval> points;
  points.reserve(victims.size());
  for (const auto& [key, new_v] : victims) {
    points.push_back(db::Interval{key, key});
  }
  return db::IntervalSet(std::move(points));
}

bool IsWriter(const ScheduledOp& op) { return op.kind == OpKind::kUpdate; }

bool RequestsConflict(const LockRequest& a, const LockRequest& b) {
  if (a.relation_id != b.relation_id) return false;
  const bool modes_conflict =
      a.mode == LockMode::kExclusive || b.mode == LockMode::kExclusive;
  return modes_conflict && !db::IntervalSet::Intersect(a.keys, b.keys).empty();
}

/// The sim::MultisetDigest term of view key `key` as the shadow predicts
/// it: its one tuple's, or 0 when the key is outside the view.
uint64_t KeyDigest(const sim::ShadowOracle& shadow, int model, int64_t key) {
  sim::MultisetDigest digest;
  db::Tuple value;
  if (sim::ShadowViewTuple(shadow, model, key, &value)) digest.Add(value, 1);
  return digest.value();
}

/// The key range a client draws from under a contention profile. For
/// kUniform this is the whole relation, so `base + Uniform(width)` is the
/// exact draw the pre-profile scheduler made — existing seeds keep their
/// schedules byte-for-byte.
struct KeyRange {
  int64_t base;
  int64_t width;
};

KeyRange ProfileRange(ContentionProfile p, uint32_t client, uint32_t clients,
                      int64_t n) {
  switch (p) {
    case ContentionProfile::kUniform:
      return {0, n};
    case ContentionProfile::kDisjoint: {
      const int64_t lo = static_cast<int64_t>(client) * n / clients;
      const int64_t hi = static_cast<int64_t>(client + 1) * n / clients;
      return {lo, std::max<int64_t>(1, hi - lo)};
    }
    case ContentionProfile::kHotRange:
      return {0, std::max<int64_t>(1, n / 8)};
  }
  return {0, n};
}

}  // namespace

bool Conflicts(const LockSet& a, const LockSet& b) {
  for (const LockRequest& ra : a) {
    for (const LockRequest& rb : b) {
      if (RequestsConflict(ra, rb)) return true;
    }
  }
  return false;
}

const char* ContentionProfileName(ContentionProfile p) {
  switch (p) {
    case ContentionProfile::kUniform:
      return "uniform";
    case ContentionProfile::kDisjoint:
      return "disjoint";
    case ContentionProfile::kHotRange:
      return "hot-range";
  }
  return "unknown";
}

Schedule BuildSchedule(const ScheduleOptions& options,
                       sim::StrategyDriver* driver) {
  Schedule schedule;
  schedule.options = options;

  sim::ShadowOracle shadow = sim::MakeShadow(*driver->scenario());
  const int model = driver->model();
  const db::IntervalSet screen =
      driver->scenario()->ViewPredicate()->ImpliedRangeSet(Scenario::kFieldK1);
  const int64_t l =
      std::max<int64_t>(1, static_cast<int64_t>(driver->scenario()->params().l));
  // One digest term per view key, kept in step with the shadow. The digest
  // is a sum mod 2^64, so a query's expected digest is the sum of its
  // range's terms: no tuple is built per key per query.
  std::vector<uint64_t> key_digest(static_cast<size_t>(shadow.f_cut));
  for (int64_t key = 0; key < shadow.f_cut; ++key) {
    key_digest[key] = KeyDigest(shadow, model, key);
  }

  // Per-client streams are seeded independently of the interleaving, and
  // the sequencer has its own stream: reordering the sequencer cannot
  // change what any client asks for, only when it runs.
  std::vector<Random> client_rng;
  std::vector<uint32_t> remaining(options.clients, options.ops_per_client);
  client_rng.reserve(options.clients);
  for (uint32_t c = 0; c < options.clients; ++c) {
    client_rng.emplace_back(ClientSeed(options.seed, c));
  }
  Random sequencer(ClientSeed(options.seed, options.clients + 17));

  uint64_t live = 0;
  for (uint32_t r : remaining) live += r;
  while (live > 0) {
    // Pick among clients with work left, uniformly.
    uint32_t pick = static_cast<uint32_t>(sequencer.Uniform(live));
    uint32_t client = 0;
    while (pick >= remaining[client]) {
      pick -= remaining[client];
      ++client;
    }
    --remaining[client];
    --live;

    Random& rng = client_rng[client];
    const KeyRange range = ProfileRange(options.contention, client,
                                        options.clients, shadow.n);
    ScheduledOp op;
    op.seq = schedule.ops.size();
    op.client = client;
    if (rng.Bernoulli(options.update_fraction)) {
      op.kind = OpKind::kUpdate;
      for (int64_t j = 0; j < l; ++j) {
        const int64_t key =
            range.base + static_cast<int64_t>(rng.Uniform(range.width));
        op.victims.emplace_back(key, rng.NextDouble() * 1000.0);
      }
      op.voluntary_abort = rng.Bernoulli(options.abort_fraction);
      op.locks.push_back(LockRequest{kLockRelBase, LockMode::kExclusive,
                                     WriterIntervals(op.victims)});
      ++schedule.planned_updates;
      if (op.voluntary_abort) {
        ++schedule.planned_aborts;
      } else {
        AdvanceShadow(op, &shadow);
        for (const auto& [key, new_v] : op.victims) {
          if (key < shadow.f_cut) {
            key_digest[key] = KeyDigest(shadow, model, key);
          }
        }
      }
    } else {
      op.kind = OpKind::kQuery;
      op.lo = range.base + static_cast<int64_t>(rng.Uniform(range.width));
      op.hi = op.lo + static_cast<int64_t>(rng.Uniform(
                          std::max<int64_t>(1, range.width / 2)));
      if (options.contention == ContentionProfile::kDisjoint) {
        // Keep the read set inside the client's partition so disjoint means
        // disjoint for readers too (the uniform path stays unclamped — its
        // historical stream never clamped).
        op.hi = std::min(op.hi, range.base + range.width - 1);
      }
      const int64_t to = std::min<int64_t>(op.hi, shadow.f_cut - 1);
      for (int64_t key = std::max<int64_t>(op.lo, 0); key <= to; ++key) {
        op.expected_digest += key_digest[key];
      }
      op.locks.push_back(LockRequest{kLockRelBase, LockMode::kShared,
                                     ReaderIntervals(screen, op.lo, op.hi)});
      if (model == 2) {
        // The join side is read-only: a full-relation S lock documents the
        // read set without ever conflicting (no writer touches R2).
        op.locks.push_back(LockRequest{kLockRelR2, LockMode::kShared,
                                       db::IntervalSet::All()});
      }
      ++schedule.planned_queries;
    }
    schedule.ops.push_back(std::move(op));
  }
  return schedule;
}

void AdvanceShadow(const ScheduledOp& op, sim::ShadowOracle* shadow) {
  for (const auto& [key, new_v] : op.victims) shadow->v[key] = new_v;
}

uint64_t AnalyzeSchedule(Schedule* schedule) {
  const uint32_t window = schedule->options.clients;
  uint64_t total = 0;
  for (size_t i = 0; i < schedule->ops.size(); ++i) {
    ScheduledOp& op = schedule->ops[i];
    op.conflict_preds.clear();
    op.conflicts_rw = 0;
    op.conflicts_ww = 0;
    const size_t first = i >= window ? i - window + 1 : 0;
    for (size_t j = first; j < i; ++j) {
      const ScheduledOp& prev = schedule->ops[j];
      if (prev.client == op.client) continue;  // a client runs serially
      if (!Conflicts(op.locks, prev.locks)) continue;
      op.conflict_preds.push_back(static_cast<uint32_t>(j));
      if (IsWriter(op) && IsWriter(prev)) {
        ++op.conflicts_ww;
      } else {
        ++op.conflicts_rw;
      }
      ++total;
    }
  }
  return total;
}

}  // namespace viewmat::server
