#ifndef VIEWMAT_OBS_TRACE_H_
#define VIEWMAT_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/owner_check.h"

namespace viewmat::obs {

/// Time source for the tracer. The simulator's clock is *model
/// milliseconds* — the CostTracker's accumulated C1/C2/C3 charges — not
/// wall-clock: spans measure what the paper's cost accounting measures, so
/// a span's duration is exactly the model cost of the work inside it.
class VirtualClock {
 public:
  virtual ~VirtualClock() = default;
  virtual double NowMs() const = 0;
};

/// One recorded span. `parent` is the 1-based position of the enclosing
/// span in the span list (0 = track root); the list is in begin order, so
/// it doubles as a stable serialization order.
struct Span {
  std::string name;
  uint32_t parent = 0;
  uint32_t track = 0;
  double begin_ms = 0;
  double end_ms = -1;  ///< -1 while open
};

/// Records nested spans against a VirtualClock and serializes them as
/// Chrome-trace/Perfetto JSON (load via ui.perfetto.dev or
/// chrome://tracing) or as a deterministic ASCII tree for golden tests.
///
/// Span naming scheme (shared by every strategy, so traces from deferred
/// and hybrid runs line up): root spans are bare verbs — "txn", "query",
/// "refresh", "recover", "recompute" — and sub-steps are
/// "<root>.<step>" in snake_case, e.g. "refresh.prepare",
/// "refresh.view_patch", "refresh.fold", "refresh.ad_reset",
/// "recover.ad", "recover.log_replay", "recover.bloom_rebuild",
/// "recover.wal_analysis", "recover.wal_redo". The server layer adds the
/// namespaced roots "server.txn" / "server.query" (one per scheduled
/// client operation). The wire layer adds the "net." roots:
/// "net.send" (one per message handed to the in-process transport),
/// "net.retry" (a client re-sending an unacknowledged request after a
/// timeout), and "net.redeliver" (the server answering a duplicate
/// request from the dedup cache instead of re-executing it). New
/// emission sites should reuse an existing root when the work belongs
/// to one of these lifecycles rather than inventing a new root verb.
///
/// The disabled mode is a null pointer: every emission site goes through
/// ScopedSpan, which does nothing (one branch) when the tracer is null, so
/// tracing costs nothing unless a harness opts in.
///
/// Single-owner, like storage::CostTracker: a tracer belongs to the one
/// thread that drives its engine, and parallel sweeps give each task its
/// own tracer (or none). Recording asserts the contract in debug builds
/// (common::OwnerCheck). A span is listed from BeginSpan on, with
/// end_ms = -1 until it closes; its handle is its 1-based position in
/// spans().
class Tracer {
 public:
  /// `clock` may be null (spans record 0); see SetClock.
  explicit Tracer(const VirtualClock* clock = nullptr) : clock_(clock) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Points the tracer at a (new) clock. The simulator calls this per
  /// strategy run: each run has its own CostTracker whose model time
  /// restarts at zero, and each run gets its own track (see NewTrack), so
  /// runs lay out as parallel tracks starting at t=0 — directly comparable
  /// in Perfetto.
  void SetClock(const VirtualClock* clock) { clock_ = clock; }

  /// Starts a new track (Perfetto "thread") named `name`; subsequent spans
  /// land on it. Returns the track id. Implicitly closes the open spans.
  uint32_t NewTrack(std::string name);

  /// Begins a span; returns its handle for EndSpan. Nesting follows
  /// begin/end order (a stack of open spans), which matches ScopedSpan's
  /// RAII scoping.
  uint32_t BeginSpan(std::string name);
  void EndSpan(uint32_t handle);

  size_t span_count() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace event format: {"traceEvents":[...]} with complete ("X")
  /// events in microseconds of model time, one tid per track.
  std::string ToChromeTraceJson() const;

  /// Deterministic indented tree (per track, begin order) with
  /// [begin..end] model-ms stamps — the golden-test format.
  std::string ToString() const;

  void Clear();

 private:
  double Now() const { return clock_ != nullptr ? clock_->NowMs() : 0.0; }
  void CloseOpenSpans();

  const VirtualClock* clock_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  ///< open spans' handles, innermost last
  std::vector<std::string> track_names_;
  uint32_t track_ = 0;  ///< current track id (0 = none yet)
  common::OwnerCheck owner_;
};

/// RAII span. Null tracer = disabled tracing: construction and destruction
/// are a single pointer test each, so instrumentation sites can stay in
/// hot paths unconditionally.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) {
    if (tracer != nullptr) {
      tracer_ = tracer;
      handle_ = tracer->BeginSpan(name);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(handle_);
  }

  /// Closes the span before scope exit (for spans covering only the front
  /// part of a function). Idempotent; the destructor becomes a no-op.
  void End() {
    if (tracer_ != nullptr) tracer_->EndSpan(handle_);
    tracer_ = nullptr;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  uint32_t handle_ = 0;
};

}  // namespace viewmat::obs

#endif  // VIEWMAT_OBS_TRACE_H_
