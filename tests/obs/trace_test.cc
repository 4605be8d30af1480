#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace viewmat::obs {
namespace {

/// Test clock: time only advances when the test says so.
class FakeClock : public VirtualClock {
 public:
  double NowMs() const override { return now_ms_; }
  void Advance(double ms) { now_ms_ += ms; }

 private:
  double now_ms_ = 0;
};

TEST(Tracer, GoldenToStringTree) {
  FakeClock clock;
  Tracer tracer(&clock);
  tracer.NewTrack("deferred");
  const uint32_t outer = tracer.BeginSpan("query");
  clock.Advance(30.0);
  const uint32_t inner = tracer.BeginSpan("screen");
  clock.Advance(1.5);
  tracer.EndSpan(inner);
  clock.Advance(30.0);
  tracer.EndSpan(outer);
  tracer.NewTrack("immediate");
  const uint32_t other = tracer.BeginSpan("update_apply");
  clock.Advance(2.0);
  tracer.EndSpan(other);

  EXPECT_EQ(tracer.ToString(),
            "track 1: deferred\n"
            "  query [0.000..61.500] 61.500 ms\n"
            "    screen [30.000..31.500] 1.500 ms\n"
            "track 2: immediate\n"
            "  update_apply [61.500..63.500] 2.000 ms\n");
}

TEST(Tracer, EndSpanIsIdempotentAndClosesNestedOrphans) {
  FakeClock clock;
  Tracer tracer(&clock);
  tracer.NewTrack("t");
  const uint32_t outer = tracer.BeginSpan("outer");
  clock.Advance(1.0);
  tracer.BeginSpan("orphan");  // never explicitly ended
  clock.Advance(1.0);
  tracer.EndSpan(outer);  // closes orphan at outer's end time
  ASSERT_EQ(tracer.span_count(), 2u);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end_ms, 2.0);
  EXPECT_DOUBLE_EQ(tracer.spans()[1].end_ms, 2.0);

  clock.Advance(5.0);
  tracer.EndSpan(outer);  // idempotent: end time unchanged
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end_ms, 2.0);
  tracer.EndSpan(0);    // invalid handles are ignored
  tracer.EndSpan(999);
}

TEST(Tracer, NewTrackClosesOpenSpans) {
  FakeClock clock;
  Tracer tracer(&clock);
  tracer.NewTrack("a");
  tracer.BeginSpan("left_open");
  clock.Advance(3.0);
  tracer.NewTrack("b");  // closes and flushes the open span
  ASSERT_EQ(tracer.span_count(), 1u);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end_ms, 3.0);
  // Spans after the switch land on the new track with no stale parent.
  const uint32_t h = tracer.BeginSpan("fresh");
  tracer.EndSpan(h);
  ASSERT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.spans().back().track, 2u);
  EXPECT_EQ(tracer.spans().back().parent, 0u);
}

TEST(Tracer, OpenSpansAreListedFromBeginSpan) {
  FakeClock clock;
  Tracer tracer(&clock);
  tracer.NewTrack("t");
  const uint32_t outer = tracer.BeginSpan("outer");
  clock.Advance(1.0);
  const uint32_t inner = tracer.BeginSpan("inner");
  // Listed at once, still open; the handle is the 1-based position.
  ASSERT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.spans()[outer - 1].name, "outer");
  EXPECT_EQ(tracer.spans()[inner - 1].parent, outer);
  EXPECT_DOUBLE_EQ(tracer.spans()[inner - 1].begin_ms, 1.0);
  EXPECT_DOUBLE_EQ(tracer.spans()[inner - 1].end_ms, -1.0);
  clock.Advance(2.0);
  tracer.EndSpan(inner);
  EXPECT_DOUBLE_EQ(tracer.spans()[inner - 1].end_ms, 3.0);
  EXPECT_DOUBLE_EQ(tracer.spans()[outer - 1].end_ms, -1.0);
  tracer.EndSpan(outer);
  EXPECT_DOUBLE_EQ(tracer.spans()[outer - 1].end_ms, 3.0);
}

TEST(Tracer, ScopedSpanWithNullTracerIsANoOp) {
  ScopedSpan span(nullptr, "nothing");
  span.End();  // safe on null, and again via the destructor
}

TEST(Tracer, ScopedSpanEndIsIdempotent) {
  FakeClock clock;
  Tracer tracer(&clock);
  tracer.NewTrack("t");
  {
    ScopedSpan span(&tracer, "work");
    clock.Advance(4.0);
    span.End();
    clock.Advance(4.0);  // destructor must not reopen or re-close
  }
  ASSERT_EQ(tracer.span_count(), 1u);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end_ms, 4.0);
}

TEST(Tracer, ChromeTraceJsonParsesWithExpectedEvents) {
  FakeClock clock;
  Tracer tracer(&clock);
  tracer.NewTrack("run");
  const uint32_t h = tracer.BeginSpan("query");
  clock.Advance(2.5);
  tracer.EndSpan(h);

  auto parsed = common::ParseJson(tracer.ToChromeTraceJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("displayTimeUnit")->string_value, "ms");
  const auto* events = parsed->Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_EQ(events->items.size(), 2u);  // one M metadata + one X span
  const auto& meta = events->items[0];
  EXPECT_EQ(meta.Find("ph")->string_value, "M");
  EXPECT_EQ(meta.Find("args")->Find("name")->string_value, "run");
  const auto& x = events->items[1];
  EXPECT_EQ(x.Find("ph")->string_value, "X");
  EXPECT_EQ(x.Find("name")->string_value, "query");
  EXPECT_EQ(x.Find("ts")->number, 0.0);
  EXPECT_EQ(x.Find("dur")->number, 2500.0);  // 2.5 model-ms → trace-us
  EXPECT_EQ(x.Find("tid")->number, 1);
}

TEST(Tracer, ClearResetsEverything) {
  FakeClock clock;
  Tracer tracer(&clock);
  tracer.NewTrack("t");
  tracer.BeginSpan("s");
  tracer.Clear();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.ToString(), "");
}

}  // namespace
}  // namespace viewmat::obs
