#include "storage/buffer_pool.h"

#include <atomic>

#include "common/logging.h"
#include "storage/wal.h"

namespace viewmat::storage {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    other.pool_ = nullptr;
  }
  return *this;
}

Page& PageGuard::page() {
  VIEWMAT_CHECK(valid());
  return *pool_->frames_[frame_].page;
}

const Page& PageGuard::page() const {
  VIEWMAT_CHECK(valid());
  return *pool_->frames_[frame_].page;
}

void PageGuard::MarkDirty() {
  VIEWMAT_CHECK(valid());
  pool_->MarkDirtyFrame(frame_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, id_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskInterface* disk, size_t capacity)
    : disk_(disk), capacity_(capacity) {
  VIEWMAT_CHECK(disk_ != nullptr);
  VIEWMAT_CHECK(capacity_ >= 2 && capacity_ < kNoFrame);
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = capacity_; i > 0; --i) {
    free_frames_.push_back(static_cast<uint32_t>(i - 1));
  }
}

void BufferPool::MapPage(PageId id, uint32_t frame) {
  if (id >= table_.size()) table_.resize(size_t{id} + 1, kNoFrame);
  table_[id] = frame;
}

void BufferPool::LruPushBack(uint32_t frame) {
  Frame& fr = frames_[frame];
  fr.lru_prev = lru_tail_;
  fr.lru_next = kNoFrame;
  (lru_tail_ == kNoFrame ? lru_head_ : frames_[lru_tail_].lru_next) = frame;
  lru_tail_ = frame;
}

void BufferPool::LruPushFront(uint32_t frame) {
  Frame& fr = frames_[frame];
  fr.lru_prev = kNoFrame;
  fr.lru_next = lru_head_;
  (lru_head_ == kNoFrame ? lru_tail_ : frames_[lru_head_].lru_prev) = frame;
  lru_head_ = frame;
}

void BufferPool::LruErase(uint32_t frame) {
  const Frame& fr = frames_[frame];
  (fr.lru_prev == kNoFrame ? lru_head_ : frames_[fr.lru_prev].lru_next) =
      fr.lru_next;
  (fr.lru_next == kNoFrame ? lru_tail_ : frames_[fr.lru_next].lru_prev) =
      fr.lru_prev;
}

StatusOr<uint32_t> BufferPool::AcquireFrame() {
  if (!free_frames_.empty()) {
    const uint32_t f = free_frames_.back();
    free_frames_.pop_back();
    if (frames_[f].page == nullptr) {
      frames_[f].page = std::make_unique<Page>(disk_->page_size());
    }
    return f;
  }
  if (lru_head_ == kNoFrame) {
    return Status::ResourceExhausted("all buffer frames are pinned");
  }
  const uint32_t victim = lru_head_;
  LruErase(victim);
  Frame& fr = frames_[victim];
  VIEWMAT_DCHECK(fr.in_use && fr.pin_count == 0);
  if (fr.dirty) {
    Status flushed = EnforceWalRule(*fr.page);
    if (flushed.ok()) flushed = disk_->Write(fr.id, *fr.page);
    if (!flushed.ok()) {
      // Re-link the victim before surfacing the error: it was already
      // unlinked from the LRU list, and returning with it unlinked leaves
      // the frame unreachable (in_use, unpinned, on neither list) — the
      // pool then shrinks by one frame per failed flush until every
      // Fetch fails with "all buffer frames are pinned" despite zero
      // pins. The page is still intact and cached, so it goes back to
      // its old spot at the cold end of the list.
      LruPushFront(victim);
      return flushed;
    }
  }
  table_[fr.id] = kNoFrame;
  fr.in_use = false;
  fr.dirty = false;
  return victim;
}

StatusOr<PageGuard> BufferPool::Fetch(PageId id) {
  if (concurrent_reads_.load(std::memory_order_acquire)) {
    // Window invariant: the table is frozen (no inserts/evictions), so the
    // lookup races with nothing; the pin count is the only mutable word.
    const uint32_t f = FrameOf(id);
    if (f == kNoFrame) {
      return Status::Internal("buffer miss inside a concurrent-read window");
    }
    std::atomic_ref<uint32_t>(frames_[f].pin_count)
        .fetch_add(1, std::memory_order_acq_rel);
    return PageGuard(this, f, id);
  }
  if (const uint32_t f = FrameOf(id); f != kNoFrame) {
    Frame& fr = frames_[f];
    if (fr.pin_count == 0) LruErase(f);
    ++fr.pin_count;
    return PageGuard(this, f, id);
  }
  VIEWMAT_ASSIGN_OR_RETURN(const uint32_t f, AcquireFrame());
  Frame& fr = frames_[f];
  if (Status read = disk_->Read(id, fr.page.get()); !read.ok()) {
    // The frame holds no page: hand it back, or each failed read would
    // shrink the pool by one frame.
    free_frames_.push_back(f);
    return read;
  }
  fr.id = id;
  fr.pin_count = 1;
  fr.dirty = false;
  fr.in_use = true;
  MapPage(id, f);
  return PageGuard(this, f, id);
}

StatusOr<PageGuard> BufferPool::NewPage() {
  VIEWMAT_ASSIGN_OR_RETURN(const uint32_t f, AcquireFrame());
  const PageId id = disk_->Allocate();
  Frame& fr = frames_[f];
  fr.page->Zero();
  fr.id = id;
  fr.pin_count = 1;
  // A fresh page must reach the disk even if never modified again.
  fr.dirty = true;
  fr.in_use = true;
  MapPage(id, f);
  return PageGuard(this, f, id);
}

Status BufferPool::DeletePage(PageId id) {
  if (const uint32_t f = FrameOf(id); f != kNoFrame) {
    Frame& fr = frames_[f];
    if (fr.pin_count > 0) {
      return Status::FailedPrecondition("deleting a pinned page");
    }
    LruErase(f);
    fr.in_use = false;
    fr.dirty = false;
    free_frames_.push_back(f);
    table_[id] = kNoFrame;
  }
  return disk_->Free(id);
}

void BufferPool::Unpin(size_t frame, PageId id) {
  Frame& fr = frames_[frame];
  if (concurrent_reads_.load(std::memory_order_acquire)) {
    // The frame kept whatever LRU position it had when the window opened;
    // dropping the pin must not re-link it or recency would depend on
    // thread interleaving.
    std::atomic_ref<uint32_t>(fr.pin_count)
        .fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  VIEWMAT_CHECK(fr.in_use && fr.id == id && fr.pin_count > 0);
  if (--fr.pin_count == 0) LruPushBack(static_cast<uint32_t>(frame));
}

Status BufferPool::EnforceWalRule(const Page& page) {
  if (wal_ == nullptr || page.lsn() <= wal_->durable_lsn()) {
    return Status::OK();
  }
  ++wal_syncs_forced_;
  return wal_->Sync();
}

Status BufferPool::FlushAll() {
  const ScopedComponent tag(disk_->tracker(), Component::kBufferPool);
  for (Frame& fr : frames_) {
    if (fr.in_use && fr.dirty) {
      VIEWMAT_RETURN_IF_ERROR(EnforceWalRule(*fr.page));
      VIEWMAT_RETURN_IF_ERROR(disk_->Write(fr.id, *fr.page));
      fr.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferPool::DiscardAll() {
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& fr = frames_[i];
    if (!fr.in_use) continue;
    if (fr.pin_count > 0) {
      return Status::FailedPrecondition("discarding a pinned page");
    }
    LruErase(i);
    table_[fr.id] = kNoFrame;
    fr.in_use = false;
    fr.dirty = false;
    free_frames_.push_back(i);
  }
  return Status::OK();
}

void BufferPool::SetConcurrentReads(bool on) {
  // The mode may only flip at a barrier: every guard released, so the LRU
  // list fully describes residency and survives the window untouched.
  for (const Frame& fr : frames_) {
    VIEWMAT_CHECK(!fr.in_use || fr.pin_count == 0);
  }
  concurrent_reads_.store(on, std::memory_order_release);
}

Status BufferPool::FlushAndEvictAll() {
  const ScopedComponent tag(disk_->tracker(), Component::kBufferPool);
  VIEWMAT_RETURN_IF_ERROR(FlushAll());
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& fr = frames_[i];
    if (!fr.in_use) continue;
    if (fr.pin_count > 0) {
      return Status::FailedPrecondition("evicting a pinned page");
    }
    LruErase(i);
    table_[fr.id] = kNoFrame;
    fr.in_use = false;
    free_frames_.push_back(i);
  }
  return Status::OK();
}

}  // namespace viewmat::storage
