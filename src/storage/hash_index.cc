#include "storage/hash_index.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/random.h"

namespace viewmat::storage {

HashIndex::HashIndex(BufferPool* pool, uint32_t payload_size,
                     uint32_t bucket_count)
    : pool_(pool), payload_size_(payload_size) {
  VIEWMAT_CHECK(pool_ != nullptr);
  VIEWMAT_CHECK(bucket_count > 0);
  const uint32_t page_size = pool_->disk()->page_size();
  page_capacity_ = (page_size - kEntriesOff) / EntrySize();
  VIEWMAT_CHECK_MSG(page_capacity_ >= 1, "payload too large for page");
  buckets_.assign(bucket_count, kInvalidPageId);
}

uint32_t HashIndex::BucketFor(int64_t key) const {
  // SplitMix64 spreads sequential keys uniformly over buckets.
  return static_cast<uint32_t>(SplitMix64(static_cast<uint64_t>(key)) %
                               buckets_.size());
}

StatusOr<PageId> HashIndex::EnsurePrimary(uint32_t bucket) {
  if (buckets_[bucket] != kInvalidPageId) return buckets_[bucket];
  VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
  Page& pg = guard.page();
  pg.WriteAt<uint16_t>(kCountOff, 0);
  pg.WriteAt<PageId>(kOverflowOff, kInvalidPageId);
  guard.MarkDirty();
  buckets_[bucket] = guard.id();
  owned_pages_.push_back(guard.id());
  ++page_count_;
  return guard.id();
}

Status HashIndex::Insert(int64_t key, const uint8_t* payload) {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kHashIndex);
  const uint32_t bucket = BucketFor(key);
  VIEWMAT_ASSIGN_OR_RETURN(const PageId primary, EnsurePrimary(bucket));
  PageId cur = primary;
  while (true) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    Page& pg = guard.page();
    const uint16_t count = pg.ReadAt<uint16_t>(kCountOff);
    if (count < page_capacity_) {
      pg.WriteAt<int64_t>(KeyOff(count), key);
      pg.WriteBytes(PayloadOff(count), payload, payload_size_);
      pg.WriteAt<uint16_t>(kCountOff, count + 1);
      guard.MarkDirty();
      ++entry_count_;
      return Status::OK();
    }
    const PageId next = pg.ReadAt<PageId>(kOverflowOff);
    if (next != kInvalidPageId) {
      cur = next;
      continue;
    }
    // Chain is full end to end: append a fresh overflow page.
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard fresh, pool_->NewPage());
    Page& fp = fresh.page();
    fp.WriteAt<uint16_t>(kCountOff, 1);
    fp.WriteAt<PageId>(kOverflowOff, kInvalidPageId);
    fp.WriteAt<int64_t>(KeyOff(0), key);
    fp.WriteBytes(PayloadOff(0), payload, payload_size_);
    fresh.MarkDirty();
    pg.WriteAt<PageId>(kOverflowOff, fresh.id());
    guard.MarkDirty();
    owned_pages_.push_back(fresh.id());
    ++page_count_;
    ++entry_count_;
    return Status::OK();
  }
}

Status HashIndex::Find(int64_t key, uint8_t* out) const {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kHashIndex);
  Status result = Status::NotFound("key absent");
  VIEWMAT_RETURN_IF_ERROR(FindAll(key, [&](int64_t, const uint8_t* payload) {
    std::memcpy(out, payload, payload_size_);
    result = Status::OK();
    return false;  // first match only
  }));
  return result;
}

Status HashIndex::FindAll(int64_t key, const Visitor& visit) const {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kHashIndex);
  PageId cur = buckets_[BucketFor(key)];
  while (cur != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    const Page& pg = guard.page();
    const uint16_t count = pg.ReadAt<uint16_t>(kCountOff);
    for (uint16_t i = 0; i < count; ++i) {
      if (pg.ReadAt<int64_t>(KeyOff(i)) == key) {
        if (!visit(key, pg.data() + PayloadOff(i))) return Status::OK();
      }
    }
    cur = pg.ReadAt<PageId>(kOverflowOff);
  }
  return Status::OK();
}

Status HashIndex::Delete(int64_t key, const Matcher& match) {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kHashIndex);
  const uint32_t bucket = BucketFor(key);
  PageId cur = buckets_[bucket];
  PageId prev = kInvalidPageId;
  while (cur != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    Page& pg = guard.page();
    const uint16_t count = pg.ReadAt<uint16_t>(kCountOff);
    for (uint16_t i = 0; i < count; ++i) {
      if (pg.ReadAt<int64_t>(KeyOff(i)) != key) continue;
      if (match != nullptr && !match(pg.data() + PayloadOff(i))) continue;
      // Fill the hole with the page's last entry (order inside a bucket
      // page carries no meaning).
      if (i + 1 < count) {
        std::vector<uint8_t> last(EntrySize());
        pg.ReadBytes(KeyOff(count - 1), last.data(), EntrySize());
        pg.WriteBytes(KeyOff(i), last.data(), EntrySize());
      }
      pg.WriteAt<uint16_t>(kCountOff, count - 1);
      guard.MarkDirty();
      --entry_count_;
      // Unlink and free an emptied overflow page (never the primary).
      if (count == 1 && prev != kInvalidPageId) {
        const PageId next = pg.ReadAt<PageId>(kOverflowOff);
        VIEWMAT_ASSIGN_OR_RETURN(PageGuard pguard, pool_->Fetch(prev));
        pguard.page().WriteAt<PageId>(kOverflowOff, next);
        pguard.MarkDirty();
        guard.Release();
        VIEWMAT_RETURN_IF_ERROR(pool_->DeletePage(cur));
        owned_pages_.erase(
            std::find(owned_pages_.begin(), owned_pages_.end(), cur));
        --page_count_;
      }
      return Status::OK();
    }
    prev = cur;
    cur = pg.ReadAt<PageId>(kOverflowOff);
  }
  return Status::NotFound("no matching entry");
}

Status HashIndex::UpdatePayload(int64_t key, const Matcher& match,
                                const uint8_t* new_payload) {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kHashIndex);
  PageId cur = buckets_[BucketFor(key)];
  while (cur != kInvalidPageId) {
    VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
    Page& pg = guard.page();
    const uint16_t count = pg.ReadAt<uint16_t>(kCountOff);
    for (uint16_t i = 0; i < count; ++i) {
      if (pg.ReadAt<int64_t>(KeyOff(i)) != key) continue;
      if (match != nullptr && !match(pg.data() + PayloadOff(i))) continue;
      pg.WriteBytes(PayloadOff(i), new_payload, payload_size_);
      guard.MarkDirty();
      return Status::OK();
    }
    cur = pg.ReadAt<PageId>(kOverflowOff);
  }
  return Status::NotFound("no matching entry");
}

Status HashIndex::ScanAll(const Visitor& visit) const {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kHashIndex);
  for (PageId primary : buckets_) {
    PageId cur = primary;
    while (cur != kInvalidPageId) {
      VIEWMAT_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(cur));
      const Page& pg = guard.page();
      const uint16_t count = pg.ReadAt<uint16_t>(kCountOff);
      for (uint16_t i = 0; i < count; ++i) {
        if (!visit(pg.ReadAt<int64_t>(KeyOff(i)), pg.data() + PayloadOff(i))) {
          return Status::OK();
        }
      }
      cur = pg.ReadAt<PageId>(kOverflowOff);
    }
  }
  return Status::OK();
}

Status HashIndex::Clear() {
  const ScopedComponent tag(pool_->disk()->tracker(), Component::kHashIndex);
  // Empty the directory first so the index is logically clear even if a
  // free below fails; the in-memory owned-page list is the sole authority
  // on what to free (never the on-disk chain links — see owned_pages_).
  // Popping only after a successful free makes a retried Clear resume
  // exactly where a failed one stopped.
  for (PageId& primary : buckets_) primary = kInvalidPageId;
  entry_count_ = 0;
  while (!owned_pages_.empty()) {
    VIEWMAT_RETURN_IF_ERROR(pool_->DeletePage(owned_pages_.back()));
    owned_pages_.pop_back();
    --page_count_;
  }
  return Status::OK();
}

}  // namespace viewmat::storage
