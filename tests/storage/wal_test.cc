#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/cost_tracker.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"

namespace viewmat::storage {
namespace {

struct Record {
  Lsn lsn;
  uint8_t type;
  std::vector<uint8_t> payload;
};

class WalTest : public ::testing::Test {
 protected:
  WalTest() : tracker_(1.0, 30.0, 1.0), inner_(128, &tracker_), disk_(&inner_) {}

  static Status Append(WriteAheadLog* log, uint8_t type,
                       const std::string& payload, Lsn* lsn = nullptr) {
    return log->Append(type, reinterpret_cast<const uint8_t*>(payload.data()),
                       static_cast<uint16_t>(payload.size()), lsn);
  }

  static std::vector<Record> ScanAll(const WriteAheadLog& log,
                                     bool* torn = nullptr) {
    std::vector<Record> records;
    const Status st = log.ScanWithLsn(
        [&](Lsn lsn, uint8_t type, const uint8_t* payload, uint16_t len) {
          records.push_back({lsn, type, {payload, payload + len}});
          return true;
        },
        torn);
    EXPECT_TRUE(st.ok()) << st.message();
    return records;
  }

  CostTracker tracker_;
  SimulatedDisk inner_;
  FaultyDisk disk_;
};

TEST_F(WalTest, LsnsAreStampedMonotonically) {
  WriteAheadLog log(&disk_);
  Lsn prev = 0;
  for (int i = 0; i < 10; ++i) {
    Lsn lsn = 0;
    ASSERT_TRUE(Append(&log, 1, "r", &lsn).ok());
    EXPECT_GT(lsn, prev);
    prev = lsn;
  }
  ASSERT_TRUE(log.Sync().ok());
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GT(records[i].lsn, records[i - 1].lsn);
  }
  EXPECT_EQ(log.durable_lsn(), prev);
}

TEST_F(WalTest, SharedAllocatorPutsTwoLogsInOneLsnSpace) {
  // The unified-LSN-space property: interleaved appends to two logs
  // sharing one allocator never reuse or reorder sequence numbers.
  LsnAllocator lsns;
  WriteAheadLog::Options options;
  options.lsn_allocator = &lsns;
  WriteAheadLog a(&disk_, options);
  WriteAheadLog b(&disk_, options);
  Lsn prev = 0;
  for (int i = 0; i < 6; ++i) {
    Lsn lsn = 0;
    WriteAheadLog* log = (i % 2 == 0) ? &a : &b;
    ASSERT_TRUE(Append(log, 1, "x", &lsn).ok());
    EXPECT_GT(lsn, prev);
    prev = lsn;
  }
  EXPECT_EQ(lsns.last(), prev);
}

TEST_F(WalTest, BufferedRecordsAreNotDurableUntilSync) {
  WriteAheadLog log(&disk_);
  ASSERT_TRUE(Append(&log, 1, "one").ok());
  ASSERT_TRUE(Append(&log, 2, "two").ok());
  EXPECT_EQ(log.pending_records(), 2u);
  EXPECT_EQ(log.durable_lsn(), 0u);
  EXPECT_TRUE(ScanAll(log).empty());  // nothing on the device yet

  ASSERT_TRUE(log.Sync().ok());
  EXPECT_EQ(log.pending_records(), 0u);
  EXPECT_EQ(log.durable_lsn(), log.last_lsn());
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[1].type, 2);
}

TEST_F(WalTest, DiscardVolatileWithEmptyStagedTailIsANoOp) {
  WriteAheadLog log(&disk_);
  ASSERT_TRUE(Append(&log, 1, "durable").ok());
  ASSERT_TRUE(log.Sync().ok());
  const Lsn durable = log.durable_lsn();
  // Nothing staged: discarding must change neither the device contents
  // nor the durability watermark.
  ASSERT_TRUE(log.DiscardVolatile().ok());
  EXPECT_EQ(log.pending_records(), 0u);
  EXPECT_EQ(log.durable_lsn(), durable);
  ASSERT_EQ(ScanAll(log).size(), 1u);
}

TEST_F(WalTest, DoubleDiscardVolatileIsIdempotent) {
  WriteAheadLog log(&disk_);
  ASSERT_TRUE(Append(&log, 1, "keep").ok());
  ASSERT_TRUE(log.Sync().ok());
  ASSERT_TRUE(Append(&log, 2, "staged-a").ok());
  ASSERT_TRUE(Append(&log, 3, "staged-b").ok());
  ASSERT_TRUE(log.DiscardVolatile().ok());
  EXPECT_EQ(log.pending_records(), 0u);
  // The second discard has nothing left to drop and must not disturb the
  // durable prefix either.
  ASSERT_TRUE(log.DiscardVolatile().ok());
  EXPECT_EQ(log.pending_records(), 0u);
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, 1);
  // The log stays usable: new appends sync through normally.
  ASSERT_TRUE(Append(&log, 4, "after").ok());
  ASSERT_TRUE(log.Sync().ok());
  ASSERT_EQ(ScanAll(log).size(), 2u);
}

TEST_F(WalTest, DiscardVolatileAfterSyncDropsNothingDurable) {
  WriteAheadLog log(&disk_);
  ASSERT_TRUE(Append(&log, 1, "one").ok());
  ASSERT_TRUE(Append(&log, 2, "two").ok());
  ASSERT_TRUE(log.Sync().ok());
  const Lsn durable = log.durable_lsn();
  ASSERT_TRUE(log.DiscardVolatile().ok());
  EXPECT_EQ(log.durable_lsn(), durable);
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[1].type, 2);
}

TEST_F(WalTest, TornTailRecordIsDetectedAndDropped) {
  WriteAheadLog log(&disk_);
  ASSERT_TRUE(Append(&log, 1, "committed-one").ok());
  ASSERT_TRUE(Append(&log, 2, "committed-two").ok());
  ASSERT_TRUE(log.Sync().ok());

  // Tear the next sync: the write fails after applying a random prefix
  // of the page — the classic partially-persisted block. If the prefix
  // happens to cover the whole record the read-back probe adopts it and the
  // record is (correctly) acknowledged; either way acknowledgment and
  // durability must agree, and a half-written record never replays.
  ASSERT_TRUE(Append(&log, 3, "torn-tail-record").ok());
  disk_.set_torn_writes(true);
  disk_.InjectWriteFault(0);
  const bool acked = log.Sync().ok();
  disk_.ClearFaults();
  disk_.set_torn_writes(false);

  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), acked ? 3u : 2u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[1].type, 2);
  if (acked) {
    EXPECT_EQ(records[2].type, 3);
  }
}

TEST_F(WalTest, TruncateWithRecordLeavesOnlyTheCheckpoint) {
  WriteAheadLog log(&disk_);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(Append(&log, 1, "old").ok());
  const uint64_t mark = 42;
  Lsn lsn = 0;
  ASSERT_TRUE(log.TruncateWithRecord(9, reinterpret_cast<const uint8_t*>(&mark),
                                     sizeof(mark), &lsn)
                  .ok());
  EXPECT_GT(lsn, 0u);
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, 9);
  ASSERT_EQ(records[0].payload.size(), sizeof(mark));
  uint64_t got = 0;
  std::memcpy(&got, records[0].payload.data(), sizeof(got));
  EXPECT_EQ(got, mark);
  EXPECT_EQ(log.record_count(), 1u);
}

TEST_F(WalTest, PoolWalRuleForcesSyncBeforeDirtyWriteback) {
  BufferPool pool(&disk_, 4);
  WriteAheadLog log(&disk_);
  pool.AttachWal(&log);

  Lsn commit_lsn = 0;
  ASSERT_TRUE(Append(&log, 1, "intent", &commit_lsn).ok());
  EXPECT_EQ(log.durable_lsn(), 0u);  // staged only

  // A page dirtied under the commit stamp may not reach the device before
  // the log does: FlushAll must force the sync first.
  pool.SetStampLsn(commit_lsn);
  auto guard = pool.NewPage();
  ASSERT_TRUE(guard.ok());
  guard->MarkDirty();
  EXPECT_EQ(guard->page().lsn(), commit_lsn);
  guard->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.wal_syncs_forced(), 1u);
  EXPECT_GE(log.durable_lsn(), commit_lsn);

  // Once the log is ahead of the stamp, write-back is free again.
  auto guard2 = pool.NewPage();
  ASSERT_TRUE(guard2.ok());
  guard2->MarkDirty();
  guard2->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.wal_syncs_forced(), 1u);
}

TEST_F(WalTest, SyncFailureDoesNotAcknowledgeThenRetrySucceeds) {
  WriteAheadLog log(&disk_);
  ASSERT_TRUE(Append(&log, 1, "first-batch").ok());
  ASSERT_TRUE(log.Sync().ok());

  ASSERT_TRUE(Append(&log, 2, "second-batch").ok());
  disk_.InjectWriteFault(0);
  EXPECT_FALSE(log.Sync().ok());
  disk_.ClearFaults();

  // Retrying (possibly after re-staging) must not duplicate or lose the
  // durable history: the first batch appears exactly once, and whatever
  // the failed sync durably landed was adopted, never replayed twice.
  ASSERT_TRUE(Append(&log, 3, "third-batch").ok());
  ASSERT_TRUE(log.Sync().ok());
  const std::vector<Record> records = ScanAll(log);
  ASSERT_GE(records.size(), 2u);
  size_t firsts = 0, thirds = 0;
  for (const Record& r : records) {
    if (r.type == 1) ++firsts;
    if (r.type == 3) ++thirds;
  }
  EXPECT_EQ(firsts, 1u);
  EXPECT_EQ(thirds, 1u);
  Lsn prev = 0;
  for (const Record& r : records) {
    EXPECT_GT(r.lsn, prev);
    prev = r.lsn;
  }
}

/// The AD file's log is a WriteAheadLog charged to Component::kAdLog
/// (hr::AdFile). These cases run the log in that configuration; a record is
/// acknowledged when the Sync after its Append returns OK.
class AdLogTest : public WalTest {
 protected:
  static WriteAheadLog::Options AdLogOptions() {
    return {.component = Component::kAdLog};
  }

  static bool AppendAndSync(WriteAheadLog* log, uint8_t type,
                            const std::string& payload) {
    return Append(log, type, payload).ok() && log->Sync().ok();
  }
};

TEST_F(AdLogTest, AppendScanRoundTrip) {
  WriteAheadLog log(&disk_, AdLogOptions());
  ASSERT_TRUE(Append(&log, 1, "hello").ok());
  ASSERT_TRUE(Append(&log, 2, "").ok());
  ASSERT_TRUE(Append(&log, 3, "world!").ok());
  ASSERT_TRUE(log.Sync().ok());

  bool torn = true;
  const std::vector<Record> records = ScanAll(log, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(std::string(records[0].payload.begin(), records[0].payload.end()),
            "hello");
  EXPECT_EQ(records[1].type, 2);
  EXPECT_TRUE(records[1].payload.empty());
  EXPECT_EQ(records[2].type, 3);
  EXPECT_EQ(log.record_count(), 3u);
}

TEST_F(AdLogTest, SpillsAcrossPagesAndScansInOrder) {
  WriteAheadLog log(&disk_, AdLogOptions());
  const std::string payload(40, 'p');  // a few records per 128-byte page
  for (uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(Append(&log, i, payload).ok());
  }
  ASSERT_TRUE(log.Sync().ok());
  EXPECT_GT(log.page_count(), 1u);
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 20u);
  for (uint8_t i = 0; i < 20; ++i) EXPECT_EQ(records[i].type, i);
}

TEST_F(AdLogTest, TruncateEmptiesAndReleasesPages) {
  WriteAheadLog log(&disk_, AdLogOptions());
  const std::string payload(40, 'p');
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(Append(&log, 1, payload).ok());
  ASSERT_TRUE(log.Sync().ok());
  const size_t live_before = disk_.live_pages();
  ASSERT_TRUE(log.Truncate().ok());
  EXPECT_EQ(log.record_count(), 0u);
  EXPECT_EQ(log.page_count(), 1u);
  EXPECT_LT(disk_.live_pages(), live_before);
  EXPECT_TRUE(ScanAll(log).empty());
  // The log remains usable after truncation.
  ASSERT_TRUE(AppendAndSync(&log, 7, "post"));
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, 7);
}

TEST_F(AdLogTest, FailedAppendIsNotDurable) {
  WriteAheadLog log(&disk_, AdLogOptions());
  ASSERT_TRUE(AppendAndSync(&log, 1, "keep"));
  // The append stages; the sync that would make it durable fails.
  ASSERT_TRUE(Append(&log, 2, "lost").ok());
  disk_.InjectWriteFault(/*after=*/0);
  EXPECT_FALSE(log.Sync().ok());
  // The failed record must not appear, and the log must keep working.
  std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, 1);
  ASSERT_TRUE(AppendAndSync(&log, 3, "next"));
  records = ScanAll(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].type, 3);
}

TEST_F(AdLogTest, TornTailWriteDetectedByChecksum) {
  WriteAheadLog log(&disk_, AdLogOptions());
  ASSERT_TRUE(AppendAndSync(&log, 1, "durable-one"));
  ASSERT_TRUE(AppendAndSync(&log, 2, "durable-two"));
  // Tear the sync of the next record: a prefix of the new tail image lands,
  // which can advance `used` while leaving the record bytes partial. If the
  // torn prefix happens to cover the whole record, the read-back probe adopts
  // it and the record is (correctly) acknowledged; either way acknowledgment
  // and durability must agree.
  ASSERT_TRUE(Append(&log, 3, "torn-away!!").ok());
  disk_.set_torn_writes(true);
  disk_.InjectWriteFault(/*after=*/0);
  const bool acked = log.Sync().ok();
  disk_.ClearFaults();
  disk_.set_torn_writes(false);

  bool torn = false;
  const std::vector<Record> records = ScanAll(log, &torn);
  // Every acknowledged record survives; an unacknowledged one never appears.
  ASSERT_EQ(records.size(), acked ? 3u : 2u);
  EXPECT_EQ(records[0].type, 1);
  EXPECT_EQ(records[1].type, 2);
  if (acked) {
    EXPECT_EQ(records[2].type, 3);
  }
}

TEST_F(AdLogTest, ManyTornAppendsNeverSurfaceUnacknowledgedRecords) {
  WriteAheadLog log(&disk_, AdLogOptions());
  disk_.set_torn_writes(true);
  size_t acknowledged = 0;
  Random rng(99);
  for (int i = 0; i < 200; ++i) {
    if (rng.Bernoulli(0.3)) disk_.InjectWriteFault(0);
    const std::string payload(1 + rng.Uniform(60), 'a' + (i % 26));
    if (AppendAndSync(&log, static_cast<uint8_t>(i % 250), payload)) {
      ++acknowledged;
    }
  }
  disk_.ClearFaults();
  bool torn = false;
  const std::vector<Record> records = ScanAll(log, &torn);
  EXPECT_EQ(records.size(), acknowledged);
}

TEST_F(AdLogTest, MaxPayloadRecordFits) {
  WriteAheadLog log(&disk_, AdLogOptions());
  const std::string payload(log.max_payload(), 'm');
  ASSERT_TRUE(AppendAndSync(&log, 5, payload));
  const std::vector<Record> records = ScanAll(log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload.size(), payload.size());
}

TEST_F(AdLogTest, ScanStopsWhenVisitorReturnsFalse) {
  WriteAheadLog log(&disk_, AdLogOptions());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(Append(&log, 1, "x").ok());
  ASSERT_TRUE(log.Sync().ok());
  int seen = 0;
  ASSERT_TRUE(log.Scan([&](uint8_t, const uint8_t*, uint16_t) {
    return ++seen < 2;
  }).ok());
  EXPECT_EQ(seen, 2);
}

}  // namespace
}  // namespace viewmat::storage
