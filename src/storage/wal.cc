#include "storage/wal.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace viewmat::storage {

WriteAheadLog::WriteAheadLog(DiskInterface* disk, Options options)
    : disk_(disk),
      component_(options.component),
      lsns_(options.lsn_allocator != nullptr ? options.lsn_allocator
                                             : &owned_lsns_),
      tail_(disk->page_size()) {
  VIEWMAT_CHECK(disk_ != nullptr);
  VIEWMAT_CHECK(disk_->page_size() >= kHeaderSize + kRecordHeader + 16);
  const PageId head = disk_->Allocate();
  InitHeader(&tail_);
  VIEWMAT_CHECK_MSG(disk_->Write(head, tail_).ok(),
                    "WAL head page unwritable at construction");
  chain_.push_back(head);
}

WriteAheadLog::~WriteAheadLog() {
  for (const PageId id : chain_) (void)disk_->Free(id);
}

void WriteAheadLog::InitHeader(Page* page) const {
  page->Zero();
  page->WriteAt<uint32_t>(kUsedOff, kHeaderSize);
  page->WriteAt<PageId>(kNextOff, kInvalidPageId);
}

uint16_t WriteAheadLog::max_payload() const {
  return static_cast<uint16_t>(disk_->page_size() - kHeaderSize -
                               kRecordHeader);
}

uint32_t WriteAheadLog::Checksum(uint8_t type, uint16_t len, Lsn lsn,
                                 const uint8_t* payload) {
  uint32_t h = 2166136261u;  // FNV-1a
  const auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 16777619u;
  };
  mix(type);
  mix(static_cast<uint8_t>(len & 0xff));
  mix(static_cast<uint8_t>(len >> 8));
  for (int shift = 0; shift < 64; shift += 8) {
    mix(static_cast<uint8_t>(lsn >> shift));
  }
  for (uint16_t i = 0; i < len; ++i) mix(payload[i]);
  return h;
}

void WriteAheadLog::PutRecord(Page* page, uint32_t off, uint8_t type,
                              const uint8_t* payload, uint16_t len,
                              Lsn lsn) const {
  page->WriteAt<uint8_t>(off, type);
  page->WriteAt<uint16_t>(off + 1, len);
  page->WriteAt<Lsn>(off + 3, lsn);
  page->WriteAt<uint32_t>(off + 11, Checksum(type, len, lsn, payload));
  if (len > 0) page->WriteBytes(off + kRecordHeader, payload, len);
}

void WriteAheadLog::DurableEnd(const Page& page, uint32_t* end, size_t* count,
                               Lsn* last) const {
  const uint32_t page_size = disk_->page_size();
  uint32_t off = kHeaderSize;
  *count = 0;
  if (last != nullptr) *last = 0;
  while (off + kRecordHeader <= page_size) {
    const uint8_t type = page.ReadAt<uint8_t>(off);
    const uint16_t len = page.ReadAt<uint16_t>(off + 1);
    const Lsn lsn = page.ReadAt<Lsn>(off + 3);
    const uint32_t sum = page.ReadAt<uint32_t>(off + 11);
    if (off + kRecordHeader + len > page_size ||
        sum != Checksum(type, len, lsn, page.data() + off + kRecordHeader)) {
      break;
    }
    off += kRecordHeader + len;
    ++*count;
    if (last != nullptr) *last = lsn;
  }
  *end = off;
}

Status WriteAheadLog::ResyncTail() {
  const ScopedComponent tag(disk_->tracker(), component_);
  // Walk the durable chain from the head — not from the in-memory tail,
  // which may be stale in either direction (a link write that landed
  // despite an error extends the chain; a truncate that landed despite an
  // error empties it). A garbage (torn) link is recognized by pointing
  // nowhere useful: an unreadable id, a page with no valid records, or a
  // page already walked (never follow a cycle).
  const uint32_t page_size = disk_->page_size();
  std::vector<PageId> durable_chain;
  Page page(page_size);
  Page tail_image(page_size);
  size_t durable_records = 0;
  Lsn durable_last = 0;
  PageId id = chain_.front();
  while (true) {
    if (std::find(durable_chain.begin(), durable_chain.end(), id) !=
        durable_chain.end()) {
      break;
    }
    const Status read = disk_->Read(id, &page);
    if (!read.ok()) {
      if (!durable_chain.empty() &&
          read.code() == StatusCode::kInvalidArgument) {
        break;  // dangling garbage link: end of durable history
      }
      return read;  // head unreadable or transient: stay dirty, retry later
    }
    uint32_t end = 0;
    size_t valid = 0;
    Lsn last = 0;
    DurableEnd(page, &end, &valid, &last);
    if (!durable_chain.empty() && valid == 0) break;  // torn link target
    durable_chain.push_back(id);
    durable_records += valid;
    if (last != 0) durable_last = last;
    tail_image = page;
    const PageId next = page.ReadAt<PageId>(kNextOff);
    if (next == kInvalidPageId) break;
    id = next;
  }
  // Pages the device no longer reaches (a truncate whose head write landed
  // despite the error) go back to the allocator.
  for (const PageId old : chain_) {
    if (std::find(durable_chain.begin(), durable_chain.end(), old) ==
        durable_chain.end()) {
      (void)disk_->Free(old);
    }
  }
  chain_ = std::move(durable_chain);
  uint32_t end = 0;
  size_t valid = 0;
  DurableEnd(tail_image, &end, &valid, nullptr);
  // Scrub whatever follows the durable records so the next append rewrites
  // clean bytes over any torn region. Staged-but-unsynced records are
  // dropped with it: their callers already saw an error, and the scan just
  // decided their durable fate.
  std::memset(tail_image.data() + end, 0, page_size - end);
  tail_image.WriteAt<uint32_t>(kUsedOff, end);
  tail_ = std::move(tail_image);
  tail_used_ = end;
  tail_synced_ = end;
  pending_.clear();
  record_count_ = durable_records;
  durable_lsn_ = durable_last;
  if (durable_last > last_lsn_) last_lsn_ = durable_last;
  lsns_->EnsureAtLeast(durable_last);
  tail_dirty_ = false;
  return Status::OK();
}

Status WriteAheadLog::Append(uint8_t type, const uint8_t* payload,
                             uint16_t len, Lsn* out_lsn) {
  const ScopedComponent tag(disk_->tracker(), component_);
  VIEWMAT_CHECK(len <= max_payload());
  if (tail_dirty_) VIEWMAT_RETURN_IF_ERROR(ResyncTail());
  const uint32_t need = kRecordHeader + len;
  const uint32_t page_size = disk_->page_size();

  if (tail_used_ + need > page_size) {
    // Tail is full. Make any staged records durable first, then place the
    // record on a fresh page, write it, and only then link it from the old
    // tail — the rollover itself is always durable.
    VIEWMAT_RETURN_IF_ERROR(SyncInternal());
    const Lsn lsn = lsns_->Next();
    last_lsn_ = lsn;
    if (out_lsn != nullptr) *out_lsn = lsn;
    const PageId fresh = disk_->Allocate();
    Page next_page(page_size);
    InitHeader(&next_page);
    PutRecord(&next_page, kHeaderSize, type, payload, len, lsn);
    next_page.WriteAt<uint32_t>(kUsedOff, kHeaderSize + need);
    Status st = disk_->Write(fresh, next_page);
    if (!st.ok()) {
      // Not yet linked, so whatever landed is unreachable; the handle can
      // be returned safely.
      (void)disk_->Free(fresh);
      return st;
    }
    tail_.WriteAt<PageId>(kNextOff, fresh);
    st = disk_->Write(chain_.back(), tail_);
    if (!st.ok()) {
      // Did the link land anyway? Read the old tail back to find out.
      Page durable(page_size);
      const Status read = disk_->Read(chain_.back(), &durable);
      if (!read.ok()) {
        // Linkage unknown: the fresh page may be durably reachable, so its
        // handle must not be reused — leak it and resync before the next
        // append decides where to write.
        tail_.WriteAt<PageId>(kNextOff, kInvalidPageId);
        tail_dirty_ = true;
        return st;
      }
      if (durable.ReadAt<PageId>(kNextOff) != fresh) {
        // The link is absent (or torn garbage, repaired when the whole page
        // is next rewritten): the fresh page is unreachable.
        tail_.WriteAt<PageId>(kNextOff, kInvalidPageId);
        (void)disk_->Free(fresh);
        return st;
      }
      // The link landed in full before the fault was reported: durable ==
      // acknowledged. Fall through to the success path.
    }
    chain_.push_back(fresh);
    tail_ = std::move(next_page);
    tail_used_ = kHeaderSize + need;
    tail_synced_ = tail_used_;
    ++record_count_;
    durable_lsn_ = lsn;
    return Status::OK();
  }

  const Lsn lsn = lsns_->Next();
  last_lsn_ = lsn;
  if (out_lsn != nullptr) *out_lsn = lsn;
  const uint32_t off = tail_used_;
  PutRecord(&tail_, off, type, payload, len, lsn);
  tail_.WriteAt<uint32_t>(kUsedOff, off + need);
  tail_used_ = off + need;
  pending_.push_back(Pending{off, need, lsn});
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  const ScopedComponent tag(disk_->tracker(), component_);
  if (tail_dirty_) VIEWMAT_RETURN_IF_ERROR(ResyncTail());
  return SyncInternal();
}

Status WriteAheadLog::DiscardVolatile() {
  const ScopedComponent tag(disk_->tracker(), component_);
  // ResyncTail is exactly "trust only the device": it rebuilds the chain,
  // tail image, record count, and durable LSN from durable bytes and
  // clears the staged tail.
  tail_dirty_ = true;
  return ResyncTail();
}

Status WriteAheadLog::SyncInternal() {
  if (pending_.empty()) return Status::OK();
  const uint32_t page_size = disk_->page_size();
  const uint32_t sync_start = tail_synced_;
  const Status st = disk_->Write(chain_.back(), tail_);
  if (st.ok()) {
    record_count_ += pending_.size();
    durable_lsn_ = pending_.back().lsn;
    tail_synced_ = tail_used_;
    pending_.clear();
    return Status::OK();
  }
  // Find out what the device durably holds before deciding the batch's
  // fate: a torn write may still have landed some or all of it.
  Page durable(page_size);
  const Status read = disk_->Read(chain_.back(), &durable);
  if (!read.ok()) {
    tail_dirty_ = true;
    pending_.clear();
    return st;
  }
  uint32_t end = 0;
  size_t valid = 0;
  DurableEnd(durable, &end, &valid, nullptr);
  if (end >= tail_used_ &&
      std::memcmp(durable.data() + sync_start, tail_.data() + sync_start,
                  tail_used_ - sync_start) == 0) {
    // The whole batch landed in full despite the error: durable ==
    // acknowledged.
    record_count_ += pending_.size();
    durable_lsn_ = pending_.back().lsn;
    tail_synced_ = tail_used_;
    pending_.clear();
    return Status::OK();
  }
  if (end < sync_start ||
      std::memcmp(durable.data() + sync_start, tail_.data() + sync_start,
                  end > sync_start ? end - sync_start : 0) != 0) {
    // The device holds something that is neither the old tail nor a prefix
    // of the staged bytes; trust nothing until a full resync.
    tail_dirty_ = true;
    pending_.clear();
    return st;
  }
  // A strict prefix of the batch is durable (a torn write). Adopt it —
  // durable history is append-only, never rewritten — and scrub the
  // in-memory suffix so it can never retroactively become durable. The
  // error still stands: the caller's newest records (its sync point) are
  // gone.
  for (const Pending& p : pending_) {
    if (p.off + p.size <= end) {
      ++record_count_;
      durable_lsn_ = p.lsn;
    }
  }
  std::memset(tail_.data() + end, 0, page_size - end);
  tail_.WriteAt<uint32_t>(kUsedOff, end);
  tail_used_ = end;
  tail_synced_ = end;
  pending_.clear();
  return st;
}

Status WriteAheadLog::ScanWithLsn(const LsnVisitor& visit,
                                  bool* torn_tail) const {
  const ScopedComponent tag(disk_->tracker(), component_);
  if (torn_tail != nullptr) *torn_tail = false;
  const uint32_t page_size = disk_->page_size();
  Page page(page_size);
  PageId id = chain_.front();
  std::vector<PageId> visited;
  // Walk the on-disk chain, not the in-memory one: recovery must trust only
  // what the device durably holds.
  bool first = true;
  while (id != kInvalidPageId) {
    // A torn link write can leave a garbage next pointer; if it happens to
    // point back into the chain, terminate instead of looping.
    if (std::find(visited.begin(), visited.end(), id) != visited.end()) {
      if (torn_tail != nullptr) *torn_tail = true;
      return Status::OK();
    }
    visited.push_back(id);
    const Status read = disk_->Read(id, &page);
    if (!read.ok()) {
      // A dangling link (torn link write) shows up as an invalid page id on
      // a non-head page: end of durable history. Anything else — e.g. a
      // transient injected fault — propagates so the caller can retry.
      if (!first && read.code() == StatusCode::kInvalidArgument) {
        if (torn_tail != nullptr) *torn_tail = true;
        return Status::OK();
      }
      return read;
    }
    // Parse records by their own checksums; the `used` header travels in
    // the same (tearable) block write as the record bytes, so it is never
    // trusted. Zero bytes are a clean end; anything else is a torn record.
    uint32_t off = kHeaderSize;
    size_t valid_here = 0;
    while (off + kRecordHeader <= page_size) {
      const uint8_t type = page.ReadAt<uint8_t>(off);
      const uint16_t len = page.ReadAt<uint16_t>(off + 1);
      const Lsn lsn = page.ReadAt<Lsn>(off + 3);
      const uint32_t sum = page.ReadAt<uint32_t>(off + 11);
      if (off + kRecordHeader + len > page_size ||
          sum != Checksum(type, len, lsn, page.data() + off + kRecordHeader)) {
        if ((type != 0 || len != 0 || sum != 0) && torn_tail != nullptr) {
          *torn_tail = true;
        }
        break;
      }
      if (!visit(lsn, type, page.data() + off + kRecordHeader, len)) {
        return Status::OK();
      }
      off += kRecordHeader + len;
      ++valid_here;
    }
    const PageId next = page.ReadAt<PageId>(kNextOff);
    if (!first && valid_here == 0) {
      // A linked page that parses to nothing is a torn link target, not
      // log history.
      if (torn_tail != nullptr) *torn_tail = true;
      return Status::OK();
    }
    first = false;
    id = next;
  }
  return Status::OK();
}

Status WriteAheadLog::Scan(const Visitor& visit, bool* torn_tail) const {
  return ScanWithLsn(
      [&visit](Lsn, uint8_t type, const uint8_t* payload, uint16_t len) {
        return visit(type, payload, len);
      },
      torn_tail);
}

Status WriteAheadLog::TruncateInternal(const TruncateRecord* records,
                                       size_t count, Lsn* out_lsn) {
  const ScopedComponent tag(disk_->tracker(), component_);
  // Empty head first, then free the remainder: a crash in between leaves a
  // logically empty log (plus leaked pages), never partial history. The
  // checkpoint records (when present) travel in the same single head
  // write, so "empty log" and "checkpoint planted" are one atomic step as
  // far as a clean failure is concerned; a torn head write degrades to an
  // empty log, which callers make safe by flushing dirty pages first.
  Page empty(disk_->page_size());
  InitHeader(&empty);
  uint32_t used = kHeaderSize;
  Lsn lsn = 0;
  for (size_t i = 0; i < count; ++i) {
    const TruncateRecord& r = records[i];
    VIEWMAT_CHECK(r.len <= max_payload());
    // Every surviving record must share the one atomic head write.
    VIEWMAT_CHECK(used + kRecordHeader + r.len <= disk_->page_size());
    lsn = lsns_->Next();
    last_lsn_ = lsn;
    PutRecord(&empty, used, r.type, r.payload, r.len, lsn);
    used += kRecordHeader + r.len;
    empty.WriteAt<uint32_t>(kUsedOff, used);
  }
  if (out_lsn != nullptr) *out_lsn = lsn;
  const Status st = disk_->Write(chain_.front(), empty);
  if (!st.ok()) {
    // The head write may or may not have landed; resync before the next
    // append so the old in-memory tail cannot resurrect truncated history.
    tail_dirty_ = true;
    pending_.clear();
    return st;
  }
  // Once the head is rewritten the truncation is logically complete — the
  // old chain is unreachable. Frees are best-effort: under a crashed
  // device they leak pages (a space cost), never history.
  for (size_t i = 1; i < chain_.size(); ++i) {
    (void)disk_->Free(chain_[i]);
  }
  chain_.resize(1);
  tail_ = std::move(empty);
  tail_used_ = used;
  tail_synced_ = used;
  pending_.clear();
  record_count_ = count;
  durable_lsn_ = lsn;
  tail_dirty_ = false;
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  return TruncateInternal(nullptr, 0, nullptr);
}

Status WriteAheadLog::TruncateWithRecord(uint8_t type, const uint8_t* payload,
                                         uint16_t len, Lsn* out_lsn) {
  const TruncateRecord record{type, payload, len};
  return TruncateInternal(&record, 1, out_lsn);
}

Status WriteAheadLog::TruncateWithRecords(const TruncateRecord* records,
                                          size_t count) {
  return TruncateInternal(records, count, nullptr);
}

}  // namespace viewmat::storage
