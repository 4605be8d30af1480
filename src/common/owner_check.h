#ifndef VIEWMAT_COMMON_OWNER_CHECK_H_
#define VIEWMAT_COMMON_OWNER_CHECK_H_

#include <atomic>
#include <thread>

namespace viewmat::common {

/// The single-owner contract of an engine's sinks (storage::CostTracker,
/// obs::Tracer, obs::MetricsRegistry): each belongs to the one thread that
/// drives its engine, so none of them locks. Call sites assert the
/// contract with VIEWMAT_DCHECK(owner_.CalledByOwner()), which debug
/// builds evaluate and NDEBUG builds compile out.
///
/// The first caller claims an unowned check (a compare-and-swap from the
/// default thread::id), so the check needs no set-up and costs one relaxed
/// load on the owner's path. Release() hands it to whichever thread calls
/// next.
class OwnerCheck {
 public:
  /// True iff the calling thread owns the check (claiming it if unowned).
  bool CalledByOwner() {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected;  // default id = unowned
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return true;
    }
    return expected == self;
  }

  /// Drops the claim: the next caller, on any thread, becomes the owner.
  void Release() { owner_.store(std::thread::id(), std::memory_order_relaxed); }

 private:
  std::atomic<std::thread::id> owner_{};
};

}  // namespace viewmat::common

#endif  // VIEWMAT_COMMON_OWNER_CHECK_H_
