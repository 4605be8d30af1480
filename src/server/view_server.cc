#include "server/view_server.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace viewmat::server {

StatusOr<std::unique_ptr<ViewServer>> ViewServer::Create(
    const Options& options) {
  // Every rejection names the offending field, so a misconfigured bench or
  // harness fails with a message that points straight at the knob.
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
  server->exec_shadow_ = sim::MakeShadow(*server->driver_->scenario());
  server->clock_.Start(server->driver_->tracker());
  server->results_.resize(server->schedule_.ops.size());
  if (options.tracer != nullptr) options.tracer->SetClock(&server->clock_);
  return server;
}

bool ViewServer::ExecuteOp(size_t i) {
  const ScheduledOp& op = schedule_.ops[i];
  OpResult& r = results_[i];
  if (op.kind == OpKind::kUpdate) {
    sim::StagedTxn staged(exec_shadow_, driver_->base());
    for (const auto& [key, v] : op.victims) staged.Set(key, v);
    if (op.voluntary_abort) {
      // begin → abort: undo the unapplied net changes and walk
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
    sim::MultisetDigest got;
    if (!sim::DigestQuery(driver_.get(), op.lo, op.hi, &got).ok()) {
      r.status = OpStatus::kQueryFailed;  // loud failure: crash runs only
    } else {
      r.status = got.value() == op.expected_digest ? OpStatus::kQueryExact
                                                   : OpStatus::kQueryStale;
    }
  }

  return !driver_->disk()->crashed();
}

bool ViewServer::SyncAtBatchBoundary(size_t i) {
  // One device sync covers every commit record buffered since the previous
  // boundary, plus a final sync at the end of the schedule so a healthy run
  // leaves no unsynced tail for Converge's recovery pass to lose. The sync
  // runs inside op i's cost window, so its I/O joins that op's cost and
  // Σ per-op costs stays equal to the tracker totals.
  if (!options_.driver.group_commit) return true;
  if (results_[i].status == OpStatus::kCommitted) ++commits_in_batch_;
  const bool last = i + 1 == schedule_.ops.size();
  if (commits_in_batch_ == 0 ||
      (commits_in_batch_ < options_.commit_batch && !last)) {
    return true;
  }
  const Status st = driver_->SyncWal();
  commits_in_batch_ = 0;
  ++commit_batches_;
  return st.ok() && !driver_->disk()->crashed();
}

StatusOr<ViewServer::Result> ViewServer::Run() {
  if (ran_) return Status::Internal("ViewServer::Run is one-shot");
  ran_ = true;
  storage::CostTracker* tracker = driver_->tracker();

  if (options_.crash_at_disk_op > 0) {
    driver_->disk()->ScriptCrashAtOp(options_.crash_at_disk_op);
  }

  // Execute, then retire: after a crash the remaining ops are not executed,
  // but each is still stamped with the model time at which the server
  // stopped.
  bool crashed = false;
  const auto wall_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < schedule_.ops.size(); ++i) {
    const storage::CostCounters before = tracker->counters();
    if (!crashed) {
      const obs::ScopedSpan span(
          options_.tracer, schedule_.ops[i].kind == OpKind::kUpdate
                               ? "server.txn"
                               : "server.query");
      crashed = !ExecuteOp(i) || !SyncAtBatchBoundary(i);
    }
    OpResult& r = results_[i];
    r.cost = tracker->counters() - before;
    r.commit_ms = clock_.NowMs();
  }

  Result result;
  result.crashed = crashed;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  result.commit_batches = commit_batches_;
  // Model time consumed by the schedule itself (recovery/convergence and
  // the digest query below are deliberately excluded — they are epilogue).
  result.model_ms = clock_.NowMs();

  if (crashed) {
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
    ++result.exclusive_ops;

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
  result.ops = results_;
  RecordMetrics(result);
  return result;
}

void ViewServer::ReconcileAfterRecovery() {
  // The durable log is the sole authority on what committed. Transaction
  // ids are issued in sequence order, so the lost commits — ids above the
  // recovered high-water mark — form a suffix of the acknowledged commits:
  // log prefixes are durable, suffixes are not.
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
