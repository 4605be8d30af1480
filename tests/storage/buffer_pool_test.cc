#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/faulty_disk.h"

namespace viewmat::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  CostTracker tracker_;
  SimulatedDisk disk_{256, &tracker_};
  BufferPool pool_{&disk_, 4};
};

TEST_F(BufferPoolTest, NewPageIsPinnedAndWritable) {
  auto guard = pool_.NewPage();
  ASSERT_TRUE(guard.ok());
  guard->page().WriteAt<uint64_t>(0, 77);
  guard->MarkDirty();
  EXPECT_TRUE(guard->valid());
}

TEST_F(BufferPoolTest, FetchHitCostsNoIo) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard->id();
  }
  tracker_.Reset();
  {
    auto guard = pool_.Fetch(id);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(tracker_.counters().disk_reads, 0u);
}

TEST_F(BufferPoolTest, MissReadsFromDisk) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->page().WriteAt<uint64_t>(8, 123);
    guard->MarkDirty();
    id = guard->id();
  }
  ASSERT_TRUE(pool_.FlushAndEvictAll().ok());
  tracker_.Reset();
  auto guard = pool_.Fetch(id);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(tracker_.counters().disk_reads, 1u);
  EXPECT_EQ(guard->page().ReadAt<uint64_t>(8), 123u);
}

TEST_F(BufferPoolTest, DirtyEvictionWritesBack) {
  PageId first;
  {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->page().WriteAt<uint64_t>(0, 555);
    guard->MarkDirty();
    first = guard->id();
  }
  tracker_.Reset();
  // Fill the pool to force eviction of `first`.
  for (int i = 0; i < 4; ++i) {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_GE(tracker_.counters().disk_writes, 1u);
  // The evicted page's content survived.
  auto back = pool_.Fetch(first);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->page().ReadAt<uint64_t>(0), 555u);
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    ids[i] = guard->id();
  }
  // Touch ids[0] so ids[1] becomes LRU.
  { auto g = pool_.Fetch(ids[0]); ASSERT_TRUE(g.ok()); }
  // Two more new pages: evicts ids[1] first (then ids[2]).
  { auto g = pool_.NewPage(); ASSERT_TRUE(g.ok()); }
  { auto g = pool_.NewPage(); ASSERT_TRUE(g.ok()); }
  tracker_.Reset();
  { auto g = pool_.Fetch(ids[0]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(tracker_.counters().disk_reads, 0u);  // still resident
  { auto g = pool_.Fetch(ids[1]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(tracker_.counters().disk_reads, 1u);  // was evicted
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  std::vector<PageGuard> guards;
  for (int i = 0; i < 4; ++i) {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    guards.push_back(std::move(*guard));
  }
  auto fifth = pool_.NewPage();
  EXPECT_EQ(fifth.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BufferPoolTest, PinCountBlocksEviction) {
  auto pinned = pool_.NewPage();
  ASSERT_TRUE(pinned.ok());
  // Fill remaining frames; the pinned page must not be evicted.
  for (int i = 0; i < 6; ++i) {
    auto g = pool_.NewPage();
    ASSERT_TRUE(g.ok());
  }
  EXPECT_TRUE(pinned->valid());
  pinned->page().WriteAt<uint64_t>(0, 9);  // still safe to touch
}

TEST_F(BufferPoolTest, DeletePageRemovesFromPoolAndDisk) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard->id();
  }
  ASSERT_TRUE(pool_.DeletePage(id).ok());
  EXPECT_FALSE(pool_.Fetch(id).ok());
}

TEST_F(BufferPoolTest, DeletePinnedPageFails) {
  auto guard = pool_.NewPage();
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(pool_.DeletePage(guard->id()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(BufferPoolTest, FlushAllWritesDirtyOnce) {
  auto guard = pool_.NewPage();
  ASSERT_TRUE(guard.ok());
  guard->MarkDirty();
  guard->Release();
  tracker_.Reset();
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(tracker_.counters().disk_writes, 1u);
  tracker_.Reset();
  ASSERT_TRUE(pool_.FlushAll().ok());  // already clean
  EXPECT_EQ(tracker_.counters().disk_writes, 0u);
}

/// Regression: a failed dirty-eviction write-back used to orphan the
/// popped LRU victim — the frame stayed in_use but left every list, so
/// each failed flush permanently shrank the pool. Four failures against a
/// four-frame pool wedged it at kResourceExhausted with zero pins held.
TEST(BufferPoolFaultTest, FailedDirtyEvictionDoesNotLeakFrames) {
  CostTracker tracker;
  SimulatedDisk base(256, &tracker);
  FaultyDisk disk(&base, 1);
  BufferPool pool(&disk, 4);
  // Dirty every frame, all unpinned.
  for (uint64_t i = 0; i < 4; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->page().WriteAt<uint64_t>(0, i);
    guard->MarkDirty();
  }
  // Every NewPage now needs a dirty eviction; fail its write-back each
  // time — more times than the pool has frames.
  for (int i = 0; i < 8; ++i) {
    disk.InjectWriteFault(0);
    auto guard = pool.NewPage();
    ASSERT_FALSE(guard.ok());
    EXPECT_EQ(guard.status().code(), StatusCode::kInternal);
  }
  disk.ClearFaults();
  // With the device healthy again, the pool must still be able to turn
  // over its full capacity: no frame was lost to the failed flushes.
  for (int i = 0; i < 4; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok()) << "leaked a frame after failed eviction " << i;
  }
}

/// A miss whose disk read fails used to strand the frame it had acquired
/// (on neither the free list nor the LRU list), so each read fault shrank
/// the pool by one frame.
TEST(BufferPoolFaultTest, FailedReadDoesNotLeakFrames) {
  CostTracker tracker;
  SimulatedDisk base(256, &tracker);
  FaultyDisk disk(&base, 1);
  BufferPool pool(&disk, 4);
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(disk.Allocate());
  // Every fetch below is a miss; fail its read more times than the pool
  // has frames.
  for (int i = 0; i < 8; ++i) {
    disk.InjectReadFault(0);
    auto guard = pool.Fetch(pages[i]);
    ASSERT_FALSE(guard.ok());
    EXPECT_EQ(guard.status().code(), StatusCode::kInternal);
  }
  disk.ClearFaults();
  // A frame's worth of healthy misses held at once: each needs a frame.
  std::vector<PageGuard> held;
  for (int i = 0; i < 4; ++i) {
    auto guard = pool.Fetch(pages[i]);
    ASSERT_TRUE(guard.ok()) << "leaked a frame after failed read " << i;
    held.push_back(std::move(*guard));
  }
}

/// Forwards to `inner` and logs each read, write and free as "r<id>",
/// "w<id>" (with a trailing "x" when the write failed) and "f<id>".
class RecordingDisk : public DiskInterface {
 public:
  explicit RecordingDisk(DiskInterface* inner) : inner_(inner) {}

  uint32_t page_size() const override { return inner_->page_size(); }
  PageId Allocate() override { return inner_->Allocate(); }
  Status Free(PageId id) override {
    log.push_back("f" + std::to_string(id));
    return inner_->Free(id);
  }
  Status Read(PageId id, Page* out) override {
    log.push_back("r" + std::to_string(id));
    return inner_->Read(id, out);
  }
  Status Write(PageId id, const Page& in) override {
    const Status st = inner_->Write(id, in);
    log.push_back("w" + std::to_string(id) + (st.ok() ? "" : "x"));
    return st;
  }
  size_t live_pages() const override { return inner_->live_pages(); }
  CostTracker* tracker() override { return inner_->tracker(); }

  std::vector<std::string> log;

 private:
  DiskInterface* inner_;
};

/// Pins the pool's replacement policy: a fixed script on a four-frame pool
/// must read, write and free exactly these pages in exactly this order.
/// Unpinning pushes a frame to the hot end, a hit unlinks it, eviction takes
/// the cold end, a victim whose dirty write-back failed returns to the cold
/// end, and flushes walk the frames in index order. The expected sequence
/// was recorded from the list-and-hash-map implementation this pool
/// replaced; the crash and fault oracles' disk-op counts depend on it.
TEST(BufferPoolOrderTest, EvictionOrderIsPinned) {
  CostTracker tracker;
  SimulatedDisk base(256, &tracker);
  FaultyDisk faulty(&base, 1);
  RecordingDisk disk(&faulty);
  BufferPool pool(&disk, 4);
  const auto touch = [&](PageId id, bool dirty) {
    auto guard = pool.Fetch(id);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    if (dirty) guard->MarkDirty();
  };
  // Four fresh (dirty) pages, released in order 0..3.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(pool.NewPage().ok());
  touch(1, false);  // hit: 1 moves to the hot end
  auto pinned = pool.Fetch(2);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pool.NewPage().ok());  // page 4 evicts 0
  touch(0, false);                   // miss: evicts 3
  ASSERT_TRUE(pool.DeletePage(1).ok());
  touch(3, false);  // miss into the frame page 1 left free
  faulty.InjectWriteFault(0);
  ASSERT_FALSE(pool.NewPage().ok());  // page 4's write-back fails
  faulty.ClearFaults();
  ASSERT_TRUE(pool.NewPage().ok());  // page 4 is still the coldest
  touch(0, true);
  pinned->Release();
  touch(3, false);
  ASSERT_TRUE(pool.FlushAndEvictAll().ok());
  for (const PageId id : {2u, 0u, 1u, 3u}) touch(id, id % 2 == 0);
  ASSERT_TRUE(pool.DiscardAll().ok());
  for (const PageId id : {3u, 2u, 0u}) touch(id, true);
  touch(4, false);
  ASSERT_TRUE(pool.NewPage().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  const std::vector<std::string> want = {
      "w0", "w3", "r0", "f1", "r3", "w4x", "w4",       // hits, misses, delete
      "w1", "w2", "w0", "r2", "r0", "r1", "r3",        // flush-and-evict
      "r3", "r2", "r0", "r4", "w3", "w0", "w2", "w5"};  // discard, flush
  EXPECT_EQ(disk.log, want);
}

TEST_F(BufferPoolTest, MoveSemanticsTransferPin) {
  auto guard = pool_.NewPage();
  ASSERT_TRUE(guard.ok());
  PageGuard moved = std::move(*guard);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(guard->valid());
  moved.Release();
  EXPECT_FALSE(moved.valid());
}

}  // namespace
}  // namespace viewmat::storage
