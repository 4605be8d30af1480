// Seeded mutational fuzz for the write-ahead-log family: the raw
// storage::WriteAheadLog, the RecoveryManager's redo WAL and the AD file's
// log. Each iteration builds logs on a fresh device, mutates their pages
// with a PRNG — bit flips, overwritten `used` and `next` words, zeroed
// tails, truncated chains, and whole pages spliced over one another — and
// then scans, discards volatile state and recovers on the mutated device.
// Every call must come back with a Status, never abort; every record a scan
// yields must be one that was appended, and a recovered AD file may hold
// only tuples it was given.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/recovery.h"
#include "db/relation.h"
#include "db/transaction.h"
#include "hr/ad_file.h"
#include "storage/buffer_pool.h"
#include "storage/cost_tracker.h"
#include "storage/disk.h"
#include "storage/wal.h"

namespace viewmat::storage {
namespace {

constexpr uint64_t kSeed = 0x5eed2026;

/// A SimulatedDisk that remembers which live pages a log wrote last — the
/// writes charged to Component::kWal or kAdLog — so mutations hit log pages
/// and never the B+-tree or hash pages beside them.
class LogPageTap : public DiskInterface {
 public:
  LogPageTap(uint32_t page_size, CostTracker* tracker)
      : inner_(page_size, tracker) {}

  uint32_t page_size() const override { return inner_.page_size(); }
  PageId Allocate() override { return inner_.Allocate(); }
  Status Free(PageId id) override {
    log_pages_.erase(id);
    return inner_.Free(id);
  }
  Status Read(PageId id, Page* out) override { return inner_.Read(id, out); }
  Status Write(PageId id, const Page& in) override {
    const Component c = inner_.tracker()->component();
    if (c == Component::kWal || c == Component::kAdLog) {
      log_pages_.insert(id);
    } else {
      log_pages_.erase(id);
    }
    return inner_.Write(id, in);
  }
  size_t live_pages() const override { return inner_.live_pages(); }
  CostTracker* tracker() override { return inner_.tracker(); }

  /// Applies 1–4 seeded mutations to the logs' pages.
  void Mutate(Random* rng) {
    const int count = 1 + static_cast<int>(rng->Uniform(4));
    for (int i = 0; i < count && !log_pages_.empty(); ++i) MutateOne(rng);
  }

 private:
  PageId PickLogPage(Random* rng) const {
    auto it = log_pages_.begin();
    std::advance(it, rng->Uniform(log_pages_.size()));
    return *it;
  }

  void MutateOne(Random* rng) {
    const PageId id = PickLogPage(rng);
    const uint32_t size = inner_.page_size();
    Page page(size);
    ASSERT_TRUE(inner_.Read(id, &page).ok());
    switch (rng->Uniform(6)) {
      case 0: {  // bit flips anywhere, headers included
        const int flips = 1 + static_cast<int>(rng->Uniform(8));
        for (int f = 0; f < flips; ++f) {
          const uint32_t off = static_cast<uint32_t>(rng->Uniform(size));
          page.data()[off] ^= static_cast<uint8_t>(1u << rng->Uniform(8));
        }
        break;
      }
      case 1:  // an overwritten `used` word
        page.WriteAt<uint32_t>(0, static_cast<uint32_t>(rng->Next()));
        break;
      case 2: {  // an overwritten `next` word
        PageId next = kInvalidPageId;  // a truncated chain
        switch (rng->Uniform(4)) {
          case 0: break;
          case 1: next = PickLogPage(rng); break;  // a splice or a cycle
          case 2:  // any page on the device, live or not
            next = static_cast<PageId>(rng->Uniform(2 * live_pages() + 2));
            break;
          default: next = static_cast<PageId>(rng->Next()); break;
        }
        page.WriteAt<PageId>(4, next);
        break;
      }
      case 3: {  // a zeroed tail
        const uint32_t from = static_cast<uint32_t>(rng->Uniform(size));
        for (uint32_t off = from; off < size; ++off) page.data()[off] = 0;
        break;
      }
      case 4: {  // another log page spliced over this one
        ASSERT_TRUE(inner_.Read(PickLogPage(rng), &page).ok());
        break;
      }
      default:  // a freed chain page: its link now dangles
        ASSERT_TRUE(Free(id).ok());
        return;
    }
    ASSERT_TRUE(inner_.Write(id, page).ok());
  }

  SimulatedDisk inner_;
  std::set<PageId> log_pages_;
};

/// One appended record, keyed by its LSN in the oracle.
struct Record {
  uint8_t type = 0;
  std::vector<uint8_t> payload;
  bool operator==(const Record& o) const {
    return type == o.type && payload == o.payload;
  }
};
using Appended = std::map<Lsn, Record>;

/// Scans `log` and checks that every record it yields was appended.
Status ScanAgainst(const WriteAheadLog& log, const Appended& appended) {
  return log.ScanWithLsn(
      [&](Lsn lsn, uint8_t type, const uint8_t* payload, uint16_t len) {
        const auto it = appended.find(lsn);
        EXPECT_TRUE(it != appended.end()) << "LSN " << lsn << " never appended";
        if (it != appended.end()) {
          EXPECT_TRUE(it->second == (Record{type, {payload, payload + len}}))
              << "LSN " << lsn << " yields a record it was never given";
        }
        return true;
      });
}

/// Folds every record `log` durably holds into `appended`; an LSN that
/// resurfaces must carry the same record.
void Collect(const WriteAheadLog& log, Appended* appended) {
  ASSERT_TRUE(log.ScanWithLsn([&](Lsn lsn, uint8_t type,
                                  const uint8_t* payload, uint16_t len) {
                   const Record record{type, {payload, payload + len}};
                   const auto [it, fresh] = appended->emplace(lsn, record);
                   EXPECT_TRUE(fresh || it->second == record) << lsn;
                   return true;
                 })
                  .ok());
}

TEST(WalFuzz, ScansOfMutatedLogsYieldOnlyAppendedRecords) {
  // Two logs share one device and one LSN space, as the redo WAL and an AD
  // log do, so a mutated link can splice one log's page into the other.
  Random rng(kSeed);
  for (int iter = 0; iter < 2000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    CostTracker tracker;
    LogPageTap disk(128, &tracker);
    LsnAllocator lsns;
    std::unique_ptr<WriteAheadLog> logs[2];
    for (int l = 0; l < 2; ++l) {
      const Component component = l == 0 ? Component::kWal : Component::kAdLog;
      const ScopedComponent tag(&tracker, component);
      logs[l] = std::make_unique<WriteAheadLog>(
          &disk, WriteAheadLog::Options{.lsn_allocator = &lsns,
                                        .component = component});
    }
    Appended appended;
    const int records = 1 + static_cast<int>(rng.Uniform(24));
    for (int r = 0; r < records; ++r) {
      WriteAheadLog* log = logs[rng.Uniform(2)].get();
      Record record{static_cast<uint8_t>(rng.Uniform(256)), {}};
      record.payload.resize(rng.Uniform(48));
      for (uint8_t& b : record.payload) b = static_cast<uint8_t>(rng.Next());
      Lsn lsn = 0;
      ASSERT_TRUE(log->Append(record.type, record.payload.data(),
                              static_cast<uint16_t>(record.payload.size()),
                              &lsn)
                      .ok());
      appended[lsn] = record;
      if (rng.Bernoulli(0.4)) {
        ASSERT_TRUE(log->Sync().ok());
      }
      if (rng.Bernoulli(0.03)) {
        ASSERT_TRUE(log->Truncate().ok());
      }
    }
    // Some records stay staged: a mutation can never surface them.
    disk.Mutate(&rng);
    for (auto& log : logs) {
      (void)ScanAgainst(*log, appended);
      (void)log->DiscardVolatile();
      (void)ScanAgainst(*log, appended);
      // The log stays usable, or refuses cleanly.
      const uint8_t byte = 0x7e;
      Lsn lsn = 0;
      if (log->Append(9, &byte, 1, &lsn).ok()) appended[lsn] = {9, {byte}};
      (void)log->Sync();
      (void)ScanAgainst(*log, appended);
    }
  }
}

db::Schema FuzzSchema() {
  return db::Schema({db::Field::Int64("key"), db::Field::Int64("aux")});
}

db::Tuple Row(int64_t key, int64_t aux) {
  return db::Tuple({db::Value(key), db::Value(aux)});
}

TEST(WalFuzz, RecoveryOnMutatedLogsReturnsAStatus) {
  // The redo WAL and an AD log on one device, driven through their owners
  // (commits, checkpoints, session records, intents, markers, resets),
  // then mutated. Both recoveries must return a Status, the redo WAL's
  // scans may yield only records one of the two logs appended, and a
  // recovered AD file may hold only tuples it was given.
  using WalRecord = hr::AdFile::WalRecord;
  Random rng(kSeed ^ 0x9e3779b97f4a7c15ull);
  for (int iter = 0; iter < 2000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    CostTracker tracker;
    LogPageTap disk(256, &tracker);
    BufferPool pool(&disk, 16);
    LsnAllocator lsns;
    std::unique_ptr<db::RecoveryManager> rm;
    {
      const ScopedComponent tag(&tracker, Component::kWal);
      rm = std::make_unique<db::RecoveryManager>(
          &pool, db::RecoveryManager::Options{
                     .lsn_allocator = &lsns,
                     .sync_on_commit = rng.Bernoulli(0.5)});
    }
    db::Relation rel(&pool, "t", FuzzSchema(), db::AccessMethod::kClusteredBTree,
                     0);
    rm->Register(&rel);
    std::unique_ptr<hr::AdFile> ad;
    {
      const ScopedComponent tag(&tracker, Component::kAdLog);
      hr::AdFile::Options options;
      options.hash_buckets = 4;
      options.expected_keys = 64;
      options.enable_wal = true;
      options.lsn_allocator = &lsns;
      options.sync_on_commit = rng.Bernoulli(0.5);
      ad = std::make_unique<hr::AdFile>(&pool, FuzzSchema(), 0, options);
    }

    // The redo WAL's records are read back by scanning it after every op;
    // each AD-log record is noted at its append, under the LSN it drew.
    Appended records;
    std::set<db::Tuple> recorded;  // every tuple handed to the AD file
    const auto note_ad = [&](WalRecord type, std::vector<uint8_t> payload) {
      records[lsns.last()] = {static_cast<uint8_t>(type), std::move(payload)};
    };
    const auto u64s = [](uint64_t a, uint64_t b, size_t count) {
      std::vector<uint8_t> out(8 * count);
      std::memcpy(out.data(), &a, 8);
      if (count == 2) std::memcpy(out.data() + 8, &b, 8);
      return out;
    };
    int64_t next_key = 0;
    uint64_t ad_txn = 0;
    uint64_t epoch = 0;
    const int ops = 4 + static_cast<int>(rng.Uniform(12));
    for (int op = 0; op < ops; ++op) {
      switch (rng.Uniform(8)) {
        case 0:
        case 1: {
          db::Transaction txn;
          const int rows = 1 + static_cast<int>(rng.Uniform(3));
          for (int r = 0; r < rows; ++r) {
            txn.Insert(&rel, Row(next_key++, static_cast<int64_t>(rng.Next())));
          }
          ASSERT_TRUE(rm->CommitAndApply(txn).ok());
          break;
        }
        case 2:
          ASSERT_TRUE(rng.Bernoulli(0.5) ? rm->SyncWal().ok()
                                         : rm->Checkpoint().ok());
          break;
        case 3: {
          // An opaque net-layer record, as the session server stages in
          // the redo WAL ahead of a commit.
          std::vector<uint8_t> payload(1 + rng.Uniform(40));
          for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Next());
          const uint8_t type = static_cast<uint8_t>(
              db::RecoveryManager::kSessionStamp + rng.Uniform(3));
          ASSERT_TRUE(rm->wal()
                          ->Append(type, payload.data(),
                                   static_cast<uint16_t>(payload.size()))
                          .ok());
          break;
        }
        case 4:
        case 5: {
          const int intents = 1 + static_cast<int>(rng.Uniform(4));
          for (int i = 0; i < intents; ++i) {
            const db::Tuple t = Row(static_cast<int64_t>(rng.Uniform(32)),
                                    static_cast<int64_t>(rng.Uniform(4)));
            const bool insert = rng.Bernoulli(0.5);
            ASSERT_TRUE(
                (insert ? ad->RecordInsert(t) : ad->RecordDelete(t)).ok());
            recorded.insert(t);
            std::vector<uint8_t> bytes(FuzzSchema().record_size());
            t.Serialize(FuzzSchema(), bytes.data());
            note_ad(insert ? WalRecord::kIntentInsert
                           : WalRecord::kIntentDelete,
                    std::move(bytes));
          }
          // Now and then the transaction never commits: a stray.
          if (rng.Bernoulli(0.8)) {
            ASSERT_TRUE(ad->CommitTxn(++ad_txn, intents).ok());
            note_ad(WalRecord::kTxnCommit, u64s(ad_txn, intents, 2));
          }
          break;
        }
        case 6:
          ++epoch;
          ASSERT_TRUE(ad->LogRefreshBegin(epoch).ok());
          note_ad(WalRecord::kRefreshBegin, u64s(epoch, 0, 1));
          if (rng.Bernoulli(0.5)) {
            ASSERT_TRUE(ad->LogViewPatched(epoch).ok());
            note_ad(WalRecord::kViewPatched, u64s(epoch, 0, 1));
          }
          if (rng.Bernoulli(0.5)) {
            ASSERT_TRUE(ad->LogFoldCommit(epoch).ok());
            note_ad(WalRecord::kFoldCommit, u64s(epoch, 0, 1));
          }
          break;
        default:
          ASSERT_TRUE(rng.Bernoulli(0.5) ? ad->SyncLog().ok()
                                         : ad->Reset().ok());
          break;
      }
      Collect(*rm->wal(), &records);
    }

    disk.Mutate(&rng);
    (void)ScanAgainst(*rm->wal(), records);
    (void)rm->DiscardVolatileWal();
    (void)ad->DiscardVolatileLog();
    (void)ScanAgainst(*rm->wal(), records);
    (void)rm->Recover(nullptr);
    hr::AdFile::RecoveryInfo info;
    if (ad->Recover(&info).ok()) {
      // Replay adopted only intents the file was given: a spliced record of
      // another type or size was rejected, not parsed into a tuple.
      EXPECT_FALSE(ad->needs_recovery());
      std::vector<db::Tuple> a_net, d_net;
      ASSERT_TRUE(ad->ScanNet(&a_net, &d_net).ok());
      for (const auto* net : {&a_net, &d_net}) {
        for (const db::Tuple& t : *net) EXPECT_EQ(recorded.count(t), 1u);
      }
    }
    (void)ScanAgainst(*rm->wal(), records);
  }
}

}  // namespace
}  // namespace viewmat::storage
