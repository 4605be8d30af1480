#ifndef VIEWMAT_STORAGE_DISK_H_
#define VIEWMAT_STORAGE_DISK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/cost_tracker.h"
#include "storage/page.h"

namespace viewmat::storage {

/// Named protocol points where a scripted crash can be injected. Higher
/// layers announce them via DiskInterface::AtCrashPoint just before the
/// step the name describes; a FaultyDisk armed for that point then fails
/// every subsequent I/O until Restart(), modelling a hard crash at exactly
/// that instant. The plain SimulatedDisk ignores them.
enum class CrashPoint : uint8_t {
  kNone = 0,
  kBeforeWalAppend,   ///< before an AD-log intent/commit record lands
  kAfterWalAppend,    ///< intent staged, hash file not yet touched
  kBeforeViewPatch,   ///< refresh: deltas computed, view still clean
  kMidViewPatch,      ///< refresh: view deletes applied, inserts pending
  kAfterViewPatch,    ///< refresh: view patched, marker not yet logged
  kBeforeFold,        ///< refresh: view durable, base fold not started
  kMidFold,           ///< refresh: base deletes folded, inserts pending
  kBeforeAdReset,     ///< refresh: fold committed, AD file not yet reset
  kMidAdReset,        ///< refresh: AD hash cleared, log not yet truncated
  kDiskOp,            ///< not announced: FaultyDisk::ScriptCrashAtOp fired
};

inline const char* CrashPointName(CrashPoint p) {
  switch (p) {
    case CrashPoint::kNone: return "none";
    case CrashPoint::kBeforeWalAppend: return "before-wal-append";
    case CrashPoint::kAfterWalAppend: return "after-wal-append";
    case CrashPoint::kBeforeViewPatch: return "before-view-patch";
    case CrashPoint::kMidViewPatch: return "mid-view-patch";
    case CrashPoint::kAfterViewPatch: return "after-view-patch";
    case CrashPoint::kBeforeFold: return "before-fold";
    case CrashPoint::kMidFold: return "mid-fold";
    case CrashPoint::kBeforeAdReset: return "before-ad-reset";
    case CrashPoint::kMidAdReset: return "mid-ad-reset";
    case CrashPoint::kDiskOp: return "disk-op";
  }
  return "unknown";
}

/// Abstract block device. Everything above the disk (buffer pool, heap
/// files, indexes, the AD log) talks to this interface, so a decorator —
/// FaultyDisk — can interpose fault and crash injection without the upper
/// layers knowing.
class DiskInterface {
 public:
  virtual ~DiskInterface() = default;

  virtual uint32_t page_size() const = 0;

  /// Allocates a zeroed page and returns its id. Allocation itself is not
  /// charged; the write that populates the page is.
  virtual PageId Allocate() = 0;

  /// Returns a page to the free list. Accessing it afterwards is an error.
  virtual Status Free(PageId id) = 0;

  /// Copies the page contents into `out` (which must match page_size) and
  /// charges one read.
  virtual Status Read(PageId id, Page* out) = 0;

  /// Overwrites the page from `in` and charges one write.
  virtual Status Write(PageId id, const Page& in) = 0;

  /// Number of live (allocated, not freed) pages.
  virtual size_t live_pages() const = 0;

  virtual CostTracker* tracker() = 0;

  /// Protocol-point hook for crash injection. The default device never
  /// crashes; FaultyDisk overrides this to fail when a scripted crash point
  /// is reached. Callers must propagate a non-OK result as an aborted
  /// operation.
  virtual Status AtCrashPoint(CrashPoint) { return Status::OK(); }
};

/// An in-memory block device that charges the shared CostTracker C2 model
/// milliseconds per block read or write. This is the substitution for the
/// paper's 1986 disk: the analysis is entirely in model time, so an
/// accounting device reproduces it faithfully while running in microseconds
/// of wall-clock.
///
/// Free pages are recycled through a free list so long simulations do not
/// grow the page table unboundedly.
class SimulatedDisk : public DiskInterface {
 public:
  /// `tracker` must outlive the disk; it is shared with the buffer pool and
  /// higher layers so a single meter covers the whole stack.
  SimulatedDisk(uint32_t page_size, CostTracker* tracker);

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  uint32_t page_size() const override { return page_size_; }
  PageId Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, Page* out) override;
  Status Write(PageId id, const Page& in) override;
  size_t live_pages() const override { return pages_.size() - free_list_.size(); }
  CostTracker* tracker() override { return tracker_; }

 private:
  bool IsLive(PageId id) const;

  uint32_t page_size_;
  CostTracker* tracker_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<PageId> free_list_;
  std::vector<bool> live_;
};

}  // namespace viewmat::storage

#endif  // VIEWMAT_STORAGE_DISK_H_
