#ifndef VIEWMAT_OBS_TRACE_H_
#define VIEWMAT_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

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
/// span in the serialized span list (0 = track root), so the vector
/// doubles as a stable serialization order.
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
/// Thread safety: each recording thread accumulates spans in its own
/// buffer (one completed root tree at a time); when a root span closes,
/// the finished tree is flushed into the shared span list under a mutex.
/// Span handles returned by BeginSpan are therefore *thread-local* and
/// only meaningful for a matching EndSpan on the same thread (ScopedSpan's
/// RAII contract). Snapshot accessors — span_count(), spans(), ToString(),
/// ToChromeTraceJson() — see flushed (root-closed) trees only and are safe
/// to call while other threads are still recording. Single-threaded
/// recording serializes in begin order, exactly as before.
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
  /// in Perfetto. The clock is tracer-global: concurrent harnesses give
  /// each task its own tracer (or none) rather than sharing one clock.
  void SetClock(const VirtualClock* clock) { clock_ = clock; }

  /// Starts a new track (Perfetto "thread") named `name`; subsequent spans
  /// on the calling thread land on it. Returns the track id. Implicitly
  /// closes the calling thread's open spans, flushing them.
  uint32_t NewTrack(std::string name);

  /// Begins a span; returns its handle for EndSpan on the same thread.
  /// Nesting follows begin/end order (a per-thread stack), which matches
  /// ScopedSpan's RAII scoping.
  uint32_t BeginSpan(std::string name);
  void EndSpan(uint32_t handle);

  /// Flushed spans only — trees whose root span has closed.
  size_t span_count() const;
  std::vector<Span> spans() const;

  /// Chrome trace event format: {"traceEvents":[...]} with complete ("X")
  /// events in microseconds of model time, one tid per track.
  std::string ToChromeTraceJson() const;

  /// Deterministic indented tree (per track, begin order) with
  /// [begin..end] model-ms stamps — the golden-test format.
  std::string ToString() const;

  void Clear();

 private:
  /// Per-thread recording state: the buffer holds the (single) root tree
  /// currently being recorded by that thread; parents inside it are local
  /// 1-based handles, rebased on flush.
  struct ThreadState {
    std::vector<Span> buffer;
    std::vector<uint32_t> open;  ///< open spans' local handles, innermost last
    uint32_t track = 0;          ///< current (global) track id
  };

  double Now() const { return clock_ != nullptr ? clock_->NowMs() : 0.0; }
  ThreadState* State();
  /// Appends the thread's completed root tree to spans_ under mu_.
  void Flush(ThreadState* state);
  void CloseOpenSpans(ThreadState* state);

  const VirtualClock* clock_;
  mutable std::mutex mu_;  ///< guards spans_, track_names_, states_
  std::vector<Span> spans_;
  std::vector<std::string> track_names_;
  std::unordered_map<std::thread::id, std::unique_ptr<ThreadState>> states_;
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
