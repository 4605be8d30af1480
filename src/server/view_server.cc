#include "server/view_server.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace viewmat::server {

namespace {

double WallMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* OpStatusName(OpStatus s) {
  switch (s) {
    case OpStatus::kCommitted:
      return "committed";
    case OpStatus::kAborted:
      return "aborted";
    case OpStatus::kRejected:
      return "rejected";
    case OpStatus::kSkipped:
      return "skipped";
    case OpStatus::kQueryExact:
      return "query_exact";
    case OpStatus::kQueryStale:
      return "query_stale";
    case OpStatus::kQueryFailed:
      return "query_failed";
  }
  return "?";
}

StatusOr<std::unique_ptr<ViewServer>> ViewServer::Create(
    const Options& options) {
  // Every rejection names the offending field, so a misconfigured bench or
  // harness fails with a message that points straight at the knob.
  if (options.workers == 0) {
    return Status::InvalidArgument(
        "ViewServer::Options::workers must be > 0");
  }
  if (options.schedule.clients == 0) {
    return Status::InvalidArgument(
        "ViewServer::Options::schedule.clients must be > 0 (empty schedule)");
  }
  if (options.schedule.ops_per_client == 0) {
    return Status::InvalidArgument(
        "ViewServer::Options::schedule.ops_per_client must be > 0 "
        "(empty schedule)");
  }
  if (options.driver.group_commit && options.commit_batch == 0) {
    return Status::InvalidArgument(
        "ViewServer::Options::commit_batch must be >= 1 when "
        "driver.group_commit is set");
  }
  std::unique_ptr<ViewServer> server(new ViewServer(options));
  VIEWMAT_ASSIGN_OR_RETURN(server->driver_,
                           sim::StrategyDriver::Create(options.driver));
  server->schedule_ = BuildSchedule(options.schedule, server->driver_.get());
  AnalyzeSchedule(&server->schedule_);
  server->ClassifyOps();
  server->exec_shadow_ = sim::MakeShadow(*server->driver_->scenario());
  server->baseline_ = server->driver_->tracker()->counters();
  server->results_.resize(server->schedule_.ops.size());
  if (options.tracer != nullptr) options.tracer->SetClock(&server->clock_);
  return server;
}

void ViewServer::ClassifyOps() {
  const size_t n = schedule_.ops.size();
  exclusive_.assign(n, 0);
  admit_need_.assign(n, 0);

  // Pass 1 — EXCLUSIVE or PARALLEL, from the schedule and the strategy kind
  // alone (never from runtime state, so the classification — and therefore
  // the whole admission order — is identical at any worker count).
  //
  // Every update is exclusive: it mutates base/AD/WAL state. A query is
  // parallel only when its strategy's read path is provably pure:
  //  - query-modification and immediate never defer work to the read path;
  //  - deferred and recompute-on-change fold/recompute on the first query
  //    after a committed update (exclusive), after which their read paths
  //    early-out until the next update dirties them again;
  //  - hybrid's optimizer may pick the QM path, which serves the query
  //    WITHOUT draining the differential — any query after the first
  //    committed update could still choose the refresh path, so all of them
  //    stay exclusive;
  //  - snapshot queries are never refreshed mid-schedule, but the strategy
  //    offers no purity guarantee worth racing on (its read path shares the
  //    periodic-refresh machinery), so they stay exclusive.
  bool pending = false;     // committed-update work awaiting the next fold
  bool any_update = false;  // any non-aborted update so far
  for (size_t i = 0; i < n; ++i) {
    const ScheduledOp& op = schedule_.ops[i];
    bool excl = true;
    if (op.kind == OpKind::kUpdate) {
      if (!op.voluntary_abort) {
        pending = true;
        any_update = true;
      }
    } else {
      switch (options_.driver.kind) {
        case sim::StrategyKind::kQueryModification:
        case sim::StrategyKind::kImmediate:
          excl = false;
          break;
        case sim::StrategyKind::kDeferred:
        case sim::StrategyKind::kRecomputeOnChange:
          excl = pending;
          pending = false;  // the exclusive query folds / recomputes
          break;
        case sim::StrategyKind::kHybrid:
          excl = any_update;
          break;
        case sim::StrategyKind::kSnapshot:
          excl = true;
          break;
      }
    }
    exclusive_[i] = excl ? 1 : 0;
  }

  // Pass 2 — admission thresholds. An exclusive op must run alone, so it
  // waits for every predecessor to retire (threshold i); once it retires,
  // the parallel ops after it may overlap each other freely until the next
  // exclusive op (threshold = index one past the last exclusive op). No
  // later op can ever be admitted alongside an exclusive op: every j > i
  // has a threshold of at least i + 1.
  size_t last_excl_end = 0;
  for (size_t i = 0; i < n; ++i) {
    admit_need_[i] = exclusive_[i] != 0 ? i : last_excl_end;
    if (exclusive_[i] != 0) last_excl_end = i + 1;
  }
}

bool ViewServer::ExecuteOp(size_t i) {
  const ScheduledOp& op = schedule_.ops[i];
  OpResult& r = results_[i];
  storage::CostTracker* tracker = driver_->tracker();
  obs::Tracer* tracer = options_.tracer;
  uint32_t span = 0;
  if (tracer != nullptr) {
    span = tracer->BeginSpan(op.kind == OpKind::kUpdate ? "server.txn"
                                                        : "server.query");
  }
  // Every charge this op makes — from any structure it touches — lands in
  // its private shard; the retirement pipeline merges shards in sequence
  // order, so the tracker's running totals replay the serial execution.
  storage::ShardScope shard(tracker, &op_shards_[i]);

  if (op.kind == OpKind::kUpdate) {
    sim::StagedTxn staged(exec_shadow_, driver_->base());
    for (const auto& [key, v] : op.victims) staged.Set(key, v);
    if (op.voluntary_abort) {
      // begin → acquire → abort: undo the unapplied net changes and walk
      // away; the base was never touched, so there is nothing to recover.
      staged.txn().Abort();
      r.status = OpStatus::kAborted;
    } else {
      const uint64_t seq_before = driver_->txn_seq();
      const Status st = driver_->OnTransaction(staged.txn());
      if (driver_->txn_seq() != seq_before) r.txn_id = driver_->txn_seq();
      if (st.ok()) {
        staged.txn().MarkCommitted();
        staged.CommitTo(&exec_shadow_);
        r.status = OpStatus::kCommitted;
      } else {
        // Provisional when a txn id was issued: the commit record may have
        // landed before the crash. ReconcileAfterRecovery resolves it (and,
        // under group commit, re-audits every acknowledged commit) against
        // the recovered log's high-water mark.
        r.status = OpStatus::kRejected;
      }
    }
  } else {
    sim::ViewMultiset got;
    if (!sim::QueryInto(driver_.get(), op.lo, op.hi, &got).ok()) {
      r.status = OpStatus::kQueryFailed;  // loud failure: crash runs only
    } else {
      r.status = got == op.expected ? OpStatus::kQueryExact
                                    : OpStatus::kQueryStale;
    }
  }

  if (tracer != nullptr) tracer->EndSpan(span);
  return !driver_->disk()->crashed();
}

void ViewServer::RetireLocked() {
  const size_t i = retired_;
  OpResult& r = results_[i];
  storage::CostTracker* tracker = driver_->tracker();

  // Group-commit batch boundary: one device sync covers every commit record
  // buffered since the previous boundary, plus a final sync at the end of
  // the schedule so a healthy run leaves no unsynced tail for Converge's
  // recovery pass to lose. The sync runs with the retiring op's shard bound
  // so its I/O charges join that op's cost — keeping Σ per-op shards equal
  // to the tracker totals, sync included.
  if (options_.driver.group_commit && !crashed_stop_) {
    if (r.status == OpStatus::kCommitted &&
        schedule_.ops[i].kind == OpKind::kUpdate) {
      ++commits_in_batch_;
    }
    const bool last = i + 1 == schedule_.ops.size();
    if (commits_in_batch_ > 0 &&
        (commits_in_batch_ >= options_.commit_batch || last)) {
      storage::ShardScope bind(tracker, &op_shards_[i]);
      const Status st = driver_->SyncWal();
      if (!st.ok() || driver_->disk()->crashed()) crashed_stop_ = true;
      commits_in_batch_ = 0;
      ++commit_batches_;
    }
  }

  tracker->MergeShard(op_shards_[i]);
  r.cost = op_shards_[i].flat;
  r.commit_ms = tracker->Ms(tracker->counters() - baseline_);
  clock_.Set(r.commit_ms);
  r.physical_commit_wait_ms = WallMsSince(done_at_[i]);
  ++retired_;
}

void ViewServer::MaybeEnableConcurrentReadsLocked() {
  if (crashed_stop_ || pool_concurrent_) return;
  if (retired_ < schedule_.ops.size() && exclusive_[retired_] == 0) {
    // The op whose retirement got us here ran alone (it was exclusive, or
    // the mode would already be on), so no frame is pinned: safe to flip.
    // Parallel ops admitted from here read through the pool without LRU
    // maintenance, leaving the replacement state byte-identical to a serial
    // run no matter how their reads interleave.
    driver_->pool()->SetConcurrentReads(true);
    pool_concurrent_ = true;
  }
}

void ViewServer::WorkerLoop() {
  obs::Tracer* tracer = options_.tracer;
  if (tracer != nullptr) tracer->NewTrack("server.worker");
  const size_t n = schedule_.ops.size();
  for (;;) {
    const size_t i = next_op_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    const ScheduledOp& op = schedule_.ops[i];

    // Stage 1 — ordered lock acquisition: lock sets are claimed in sequence
    // order, so a blocked acquire only ever waits for earlier transactions
    // (deadlock-free), and the no-barging stripes grant in commit-LSN
    // order. The turnstile serializes only the acquire calls themselves;
    // execution overlaps freely afterwards.
    bool skip;
    {
      std::unique_lock<std::mutex> lock(exec_mu_);
      exec_cv_.wait(lock, [&] { return acquire_turn_ == i; });
      skip = crashed_stop_;
    }
    if (!skip && !locks_.TryAcquire(op.seq, op.locks)) {
      // Physically blocked on an earlier holder: wait under a lock.wait
      // span. Whether this branch runs depends on worker count and timing
      // — it never affects the logical outcome, only physical stats.
      results_[i].physically_blocked = true;
      uint32_t span = 0;
      if (tracer != nullptr) span = tracer->BeginSpan("lock.wait");
      const LockManager::AcquireResult res = locks_.Acquire(op.seq, op.locks);
      results_[i].physical_lock_wait_ms = res.wall_wait_ms;
      if (tracer != nullptr) tracer->EndSpan(span);
    }
    {
      std::lock_guard<std::mutex> lock(exec_mu_);
      ++acquire_turn_;
    }
    exec_cv_.notify_all();

    // Stage 2 — admission: wait until the retirement frontier reaches this
    // op's threshold. Exclusive ops start only when everything before them
    // has retired (they run truly alone); parallel ops overlap each other.
    bool run_op;
    {
      std::unique_lock<std::mutex> lock(exec_mu_);
      exec_cv_.wait(lock,
                    [&] { return crashed_stop_ || retired_ >= admit_need_[i]; });
      run_op = !crashed_stop_ && !skip;
      if (run_op && exclusive_[i] != 0 && pool_concurrent_) {
        // This op runs alone and may mutate pages; put the pool back into
        // its serial (LRU-maintaining) mode before it touches anything.
        driver_->pool()->SetConcurrentReads(false);
        pool_concurrent_ = false;
      }
    }

    bool ok = true;
    if (run_op) ok = ExecuteOp(i);
    if (!skip) locks_.Release(op.seq);

    // Stage 3 — done-mark and opportunistic retirement: whichever worker
    // completes the op at the frontier drains the queue, so no worker ever
    // waits for its own op to retire before claiming the next one.
    {
      std::lock_guard<std::mutex> lock(exec_mu_);
      if (!ok) crashed_stop_ = true;
      done_[i] = 1;
      done_at_[i] = std::chrono::steady_clock::now();
      while (retired_ < n && done_[retired_] != 0) RetireLocked();
      MaybeEnableConcurrentReadsLocked();
    }
    exec_cv_.notify_all();
  }
}

StatusOr<ViewServer::Result> ViewServer::Run() {
  if (ran_) return Status::Internal("ViewServer::Run is one-shot");
  ran_ = true;
  const size_t n = schedule_.ops.size();

  if (options_.crash_at_disk_op > 0) {
    driver_->disk()->ScriptCrashAtOp(options_.crash_at_disk_op);
  }
  done_.assign(n, 0);
  done_at_.assign(n, std::chrono::steady_clock::time_point());
  op_shards_ = std::vector<storage::CostShard>(n);
  // The build thread makes no further direct charges: workers charge their
  // shards, and retirement merges under exec_mu_.
  driver_->tracker()->TransferOwnership();
  driver_->tracker()->BeginShardedMode();
  if (n > 0 && exclusive_[0] == 0) {
    driver_->pool()->SetConcurrentReads(true);
    pool_concurrent_ = true;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const size_t workers = std::min<size_t>(options_.workers, n);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([this] { WorkerLoop(); });
  }
  for (std::thread& t : pool) t.join();
  const double wall_ms = WallMsSince(wall_start);

  driver_->tracker()->EndShardedMode();
  if (pool_concurrent_) {
    driver_->pool()->SetConcurrentReads(false);
    pool_concurrent_ = false;
  }

  Result result;
  result.crashed = crashed_stop_;
  result.wall_ms = wall_ms;
  result.commit_batches = commit_batches_;
  // Model time consumed by the schedule itself (recovery/convergence and
  // the digest query below are deliberately excluded — they are epilogue).
  result.model_ms =
      driver_->tracker()->Ms(driver_->tracker()->counters() - baseline_);

  if (crashed_stop_) {
    driver_->disk()->ClearFaults();
    if (driver_->disk()->crashed()) driver_->disk()->Restart();
    if (options_.driver.group_commit) {
      // Volatile state dies with the crash: cached pages may hold eager
      // applies of commits whose records never synced, and recovery must
      // not see them. Pages already written back obeyed the WAL rule
      // (record durable before page), so the device itself is consistent
      // with the durable log.
      VIEWMAT_RETURN_IF_ERROR(driver_->pool()->DiscardAll());
      // The log's staged-but-unsynced tail dies with it. If it survived,
      // Converge()'s quiesce sync below would write it back to the
      // restarted device and resurrect the very transactions the crash
      // lost — after reconciliation already declared them lost.
      VIEWMAT_RETURN_IF_ERROR(driver_->DiscardVolatileWal());
    }
    VIEWMAT_RETURN_IF_ERROR(
        sim::RecoverWithRestarts(driver_.get(), /*attempts=*/4));
    ReconcileAfterRecovery();
  }
  VIEWMAT_RETURN_IF_ERROR(driver_->Converge());
  VIEWMAT_ASSIGN_OR_RETURN(result.state_digest,
                           sim::StateDigest(driver_.get()));
  result.recoveries = driver_->recoveries();

  // Logical wait analysis on the committed timeline: an op "arrives" when
  // its client's previous op committed and is granted once every
  // conflicting in-window predecessor has committed. Deterministic — it
  // reads only schedule analysis and model-clock commit stamps.
  std::vector<double> client_last(options_.schedule.clients, 0.0);
  for (size_t i = 0; i < results_.size(); ++i) {
    OpResult& r = results_[i];
    const ScheduledOp& op = schedule_.ops[i];
    if (r.status == OpStatus::kSkipped) {
      ++result.skipped;
      continue;
    }
    r.arrive_ms = client_last[op.client];
    double grant = r.arrive_ms;
    for (const uint32_t j : op.conflict_preds) {
      if (results_[j].status != OpStatus::kSkipped) {
        grant = std::max(grant, results_[j].commit_ms);
      }
    }
    r.logical_wait_ms = grant - r.arrive_ms;
    result.logical_wait_ms += r.logical_wait_ms;
    result.logical_conflicts += op.conflict_preds.size();
    result.conflicts_rw += op.conflicts_rw;
    result.conflicts_ww += op.conflicts_ww;
    client_last[op.client] = r.commit_ms;
    result.total_cost += r.cost;
    if (exclusive_[i] != 0) {
      ++result.exclusive_ops;
    } else {
      ++result.parallel_ops;
    }

    switch (r.status) {
      case OpStatus::kCommitted:
        ++result.committed;
        break;
      case OpStatus::kAborted:
        ++result.aborted;
        break;
      case OpStatus::kRejected:
        ++result.rejected;
        break;
      case OpStatus::kQueryExact:
        ++result.queries_exact;
        break;
      case OpStatus::kQueryStale:
        ++result.queries_stale;
        break;
      case OpStatus::kQueryFailed:
        ++result.queries_failed;
        break;
      case OpStatus::kSkipped:
        break;
    }
  }
  result.throughput_tps =
      result.model_ms > 0.0
          ? static_cast<double>(result.committed) / (result.model_ms / 1000.0)
          : 0.0;
  result.lock_stats = locks_.stats();
  result.ops = results_;
  RecordMetrics(result);
  return result;
}

void ViewServer::ReconcileAfterRecovery() {
  // The durable log is the sole authority on what committed. Transaction
  // ids are issued in sequence order (updates execute alone), so the lost
  // commits — ids above the recovered high-water mark — form a suffix of
  // the acknowledged commits: log prefixes are durable, suffixes are not.
  const uint64_t high = driver_->committed_txn_high_water();
  bool lost = false;
  for (size_t i = 0; i < results_.size(); ++i) {
    const ScheduledOp& op = schedule_.ops[i];
    OpResult& r = results_[i];
    if (op.kind == OpKind::kUpdate) {
      if (r.status == OpStatus::kCommitted && r.txn_id > high) {
        // Acknowledged to the client, but the buffered commit record never
        // reached the device before the crash.
        r.status = OpStatus::kRejected;
        lost = true;
      } else if (r.status == OpStatus::kRejected && r.txn_id != 0 &&
                 r.txn_id <= high) {
        // The ambiguous in-flight commit (errored after its id was issued):
        // its record survived after all.
        r.status = OpStatus::kCommitted;
        AdvanceShadow(op, &exec_shadow_);
      }
    } else if (lost && (r.status == OpStatus::kQueryExact ||
                        r.status == OpStatus::kQueryStale)) {
      // The query answered against state containing a commit the crash
      // erased; its verdict describes a timeline that no longer exists.
      r.status = OpStatus::kSkipped;
    }
  }
}

void ViewServer::RecordMetrics(const Result& result) {
  obs::MetricsRegistry* m = options_.metrics;
  if (m == nullptr) return;
  const obs::Labels labels = {
      {"strategy", sim::StrategyKindName(options_.driver.kind)},
      {"model", options_.driver.model == 1 ? "1" : "2"}};
  m->GetCounter("server.txn.committed", labels)->Increment(result.committed);
  m->GetCounter("server.txn.aborted", labels)->Increment(result.aborted);
  m->GetCounter("server.txn.rejected", labels)->Increment(result.rejected);
  m->GetCounter("server.txn.skipped", labels)->Increment(result.skipped);
  m->GetCounter("server.query.exact", labels)
      ->Increment(result.queries_exact);
  m->GetCounter("server.query.stale", labels)
      ->Increment(result.queries_stale);
  m->GetCounter("server.query.failed", labels)
      ->Increment(result.queries_failed);
  m->GetCounter("server.lock.conflicts", labels)
      ->Increment(result.logical_conflicts);
  m->GetCounter("server.ops.parallel", labels)
      ->Increment(result.parallel_ops);
  m->GetCounter("server.ops.exclusive", labels)
      ->Increment(result.exclusive_ops);
  m->GetCounter("server.commit.batches", labels)
      ->Increment(result.commit_batches);
  obs::Histogram* wait = m->GetHistogram(
      "server.lock.logical_wait_ms", labels,
      {0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0});
  for (const OpResult& r : result.ops) {
    if (r.status != OpStatus::kSkipped) wait->Observe(r.logical_wait_ms);
  }
}

}  // namespace viewmat::server
