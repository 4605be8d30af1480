#include "storage/cost_tracker.h"

#include <gtest/gtest.h>

#include <thread>

#include "obs/trace.h"

namespace viewmat::storage {
namespace {

TEST(CostTracker, ChargesLandInUnattributedUnphasedCellByDefault) {
  CostTracker tracker;
  tracker.ChargeRead(3);
  tracker.ChargeScreen(2);
  const CostCounters& cell =
      tracker.attributed().at(Component::kUnattributed, Phase::kUnphased);
  EXPECT_EQ(cell.disk_reads, 3u);
  EXPECT_EQ(cell.screen_tests, 2u);
  EXPECT_TRUE(tracker.attributed().Total() == tracker.counters());
}

TEST(CostTracker, ScopedTagsNestAndRestore) {
  CostTracker tracker;
  tracker.ChargeRead();  // unattributed/unphased
  {
    ScopedPhase phase(&tracker, Phase::kQuery);
    ScopedComponent outer(&tracker, Component::kBptree);
    tracker.ChargeRead();  // bptree/query
    {
      ScopedComponent inner(&tracker, Component::kBloom);
      tracker.ChargeScreen();  // innermost wins: bloom/query
    }
    tracker.ChargeWrite();  // back to bptree/query after inner's destructor
  }
  tracker.ChargeWrite();  // tags fully restored

  const AttributedCounters& a = tracker.attributed();
  EXPECT_EQ(a.at(Component::kUnattributed, Phase::kUnphased).disk_reads, 1u);
  EXPECT_EQ(a.at(Component::kBptree, Phase::kQuery).disk_reads, 1u);
  EXPECT_EQ(a.at(Component::kBloom, Phase::kQuery).screen_tests, 1u);
  EXPECT_EQ(a.at(Component::kBptree, Phase::kQuery).disk_writes, 1u);
  EXPECT_EQ(a.at(Component::kUnattributed, Phase::kUnphased).disk_writes, 1u);
  EXPECT_EQ(tracker.component(), Component::kUnattributed);
  EXPECT_EQ(tracker.phase(), Phase::kUnphased);
}

TEST(CostTracker, AttributedCellsSumToFlatCountersExactly) {
  CostTracker tracker;
  // Spray charges across several cells, including repeated tags.
  for (int i = 0; i < 10; ++i) {
    ScopedPhase phase(&tracker,
                      i % 2 == 0 ? Phase::kUpdateApply : Phase::kRefresh);
    ScopedComponent comp(&tracker,
                         i % 3 == 0 ? Component::kHeap : Component::kAdLog);
    tracker.ChargeRead(i);
    tracker.ChargeWrite();
    tracker.ChargeTupleCpu(2 * i);
    tracker.ChargeAdSetOp();
  }
  tracker.ChargeScreen(7);  // untagged

  EXPECT_TRUE(tracker.attributed().Total() == tracker.counters());
  EXPECT_EQ(tracker.counters().disk_reads, 45u);
  EXPECT_EQ(tracker.counters().disk_writes, 10u);
  EXPECT_EQ(tracker.counters().screen_tests, 7u);
  EXPECT_EQ(tracker.counters().tuple_cpu_ops, 90u);
  EXPECT_EQ(tracker.counters().ad_set_ops, 10u);
}

TEST(CostTracker, ComponentAndPhaseTotalsPartitionTheTotal) {
  CostTracker tracker;
  {
    ScopedComponent comp(&tracker, Component::kHashIndex);
    ScopedPhase phase(&tracker, Phase::kScreen);
    tracker.ChargeRead(4);
  }
  tracker.ChargeWrite(2);

  CostCounters by_component;
  for (size_t c = 0; c < kNumComponents; ++c) {
    by_component +=
        tracker.attributed().ComponentTotal(static_cast<Component>(c));
  }
  CostCounters by_phase;
  for (size_t p = 0; p < kNumPhases; ++p) {
    by_phase += tracker.attributed().PhaseTotal(static_cast<Phase>(p));
  }
  EXPECT_TRUE(by_component == tracker.counters());
  EXPECT_TRUE(by_phase == tracker.counters());
}

TEST(CostTracker, ResetClearsFlatAndAttributedCounters) {
  CostTracker tracker;
  {
    ScopedComponent comp(&tracker, Component::kBufferPool);
    tracker.ChargeWrite(5);
  }
  tracker.Reset();
  EXPECT_TRUE(tracker.counters().empty());
  EXPECT_TRUE(tracker.attributed().Total().empty());
  EXPECT_DOUBLE_EQ(tracker.TotalMs(), 0.0);
}

TEST(CostTracker, NullTrackerGuardsAreNoOps) {
  ScopedComponent comp(nullptr, Component::kHeap);
  ScopedPhase phase(nullptr, Phase::kQuery);
  EXPECT_EQ(TracerOf(nullptr), nullptr);
}

TEST(CostTracker, IsTheTracersModelClock) {
  CostTracker tracker(1.0, 30.0, 1.0);
  obs::Tracer tracer;
  tracker.set_tracer(&tracer);
  EXPECT_EQ(TracerOf(&tracker), &tracer);

  tracer.NewTrack("run");
  const uint32_t h = tracer.BeginSpan("io");
  tracker.ChargeRead();      // +30 model-ms
  tracker.ChargeTupleCpu();  // +1
  tracer.EndSpan(h);
  ASSERT_EQ(tracer.span_count(), 1u);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].begin_ms, 0.0);
  EXPECT_DOUBLE_EQ(tracer.spans()[0].end_ms, 31.0);
}

TEST(CostTracker, TransferOwnershipHandsTheTrackerToAnotherThread) {
  // Serialized handoff: the main thread charges, releases its claim, and a
  // second thread charges next. Without TransferOwnership() the second
  // thread's charge would trip the single-owner DCHECK in debug builds.
  CostTracker tracker;
  tracker.ChargeRead();
  tracker.TransferOwnership();
  std::thread other([&tracker] {
    tracker.ChargeWrite(2);
    tracker.TransferOwnership();
  });
  other.join();
  tracker.ChargeRead(3);  // main thread re-claims after the join
  EXPECT_EQ(tracker.counters().disk_reads, 4u);
  EXPECT_EQ(tracker.counters().disk_writes, 2u);
}

TEST(CostTracker, AttributionNeverChangesModelMilliseconds) {
  CostTracker untagged;
  CostTracker tagged;
  untagged.ChargeRead(2);
  untagged.ChargeScreen(3);
  {
    ScopedComponent comp(&tagged, Component::kBptree);
    ScopedPhase phase(&tagged, Phase::kQuery);
    tagged.ChargeRead(2);
    tagged.ChargeScreen(3);
  }
  EXPECT_TRUE(untagged.counters() == tagged.counters());
  EXPECT_DOUBLE_EQ(untagged.TotalMs(), tagged.TotalMs());
}

}  // namespace
}  // namespace viewmat::storage
