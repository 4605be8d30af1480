#include "obs/trace.h"

#include <cstdio>

#include "common/json.h"
#include "common/logging.h"

namespace viewmat::obs {

void Tracer::CloseOpenSpans() {
  const double now = Now();
  for (const uint32_t handle : open_) {
    Span& span = spans_[handle - 1];
    if (span.end_ms < 0) span.end_ms = now;
  }
  open_.clear();
}

uint32_t Tracer::NewTrack(std::string name) {
  VIEWMAT_DCHECK(owner_.CalledByOwner());
  // A new track implicitly closes the open spans — the simulator switches
  // tracks only between runs, when all spans are closed, but a defensive
  // close keeps the trace well-formed regardless.
  CloseOpenSpans();
  track_names_.push_back(std::move(name));
  track_ = static_cast<uint32_t>(track_names_.size());
  return track_;
}

uint32_t Tracer::BeginSpan(std::string name) {
  VIEWMAT_DCHECK(owner_.CalledByOwner());
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? 0 : open_.back();
  span.track = track_;
  span.begin_ms = Now();
  spans_.push_back(std::move(span));
  const uint32_t handle = static_cast<uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void Tracer::EndSpan(uint32_t handle) {
  VIEWMAT_DCHECK(owner_.CalledByOwner());
  if (handle == 0 || handle > spans_.size()) return;
  Span& span = spans_[handle - 1];
  if (span.end_ms >= 0) return;  // already closed (defensively)
  span.end_ms = Now();
  // Close any nested spans left open (exception-free code should never
  // leave any, but the trace must stay a tree).
  while (!open_.empty()) {
    const uint32_t top = open_.back();
    open_.pop_back();
    if (top == handle) break;
    Span& inner = spans_[top - 1];
    if (inner.end_ms < 0) inner.end_ms = span.end_ms;
  }
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
  track_names_.clear();
  track_ = 0;
}

std::string Tracer::ToChromeTraceJson() const {
  common::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < track_names_.size(); ++i) {
    w.BeginObject();
    w.KV("name", "thread_name");
    w.KV("ph", "M");
    w.KV("pid", 1);
    w.KV("tid", static_cast<int64_t>(i + 1));
    w.Key("args");
    w.BeginObject();
    w.KV("name", track_names_[i]);
    w.EndObject();
    w.EndObject();
  }
  for (const Span& span : spans_) {
    w.BeginObject();
    w.KV("name", span.name);
    w.KV("cat", "viewmat");
    w.KV("ph", "X");
    // Model milliseconds → trace microseconds.
    w.KV("ts", span.begin_ms * 1000.0);
    const double end = span.end_ms >= 0 ? span.end_ms : span.begin_ms;
    w.KV("dur", (end - span.begin_ms) * 1000.0);
    w.KV("pid", 1);
    w.KV("tid", static_cast<int64_t>(span.track));
    w.EndObject();
  }
  w.EndArray();
  w.KV("displayTimeUnit", "ms");
  w.EndObject();
  return w.str();
}

std::string Tracer::ToString() const {
  std::string out;
  char buf[160];
  // Children of each span, in begin order.
  std::vector<std::vector<uint32_t>> children(spans_.size() + 1);
  for (uint32_t h = 1; h <= spans_.size(); ++h) {
    children[spans_[h - 1].parent].push_back(h);
  }
  // Depth-first from each root, grouped by track.
  struct Rec {
    const std::vector<std::vector<uint32_t>>& children;
    const std::vector<Span>& spans;
    std::string& out;
    char* buf;
    size_t buf_size;
    void Visit(uint32_t handle, int depth) {
      const Span& s = spans[handle - 1];
      const double end = s.end_ms >= 0 ? s.end_ms : s.begin_ms;
      std::snprintf(buf, buf_size, "%*s%s [%.3f..%.3f] %.3f ms\n", depth * 2,
                    "", s.name.c_str(), s.begin_ms, end, end - s.begin_ms);
      out += buf;
      for (const uint32_t c : children[handle]) Visit(c, depth + 1);
    }
  };
  Rec rec{children, spans_, out, buf, sizeof(buf)};
  const uint32_t tracks = static_cast<uint32_t>(track_names_.size());
  for (uint32_t track = tracks == 0 ? 0 : 1; track <= tracks; ++track) {
    if (track >= 1) {
      std::snprintf(buf, sizeof(buf), "track %u: %s\n", track,
                    track_names_[track - 1].c_str());
      out += buf;
    }
    for (const uint32_t root : children[0]) {
      if (spans_[root - 1].track == track) rec.Visit(root, track == 0 ? 0 : 1);
    }
  }
  return out;
}

}  // namespace viewmat::obs
