#include "common/owner_check.h"

#include <gtest/gtest.h>

#include <thread>

namespace viewmat::common {
namespace {

TEST(OwnerCheck, TheFirstCallerClaimsItAndReleaseHandsItOver) {
  OwnerCheck check;
  EXPECT_TRUE(check.CalledByOwner());  // unowned: this thread claims it
  EXPECT_TRUE(check.CalledByOwner());

  bool other = true;
  std::thread([&] { other = check.CalledByOwner(); }).join();
  EXPECT_FALSE(other);  // another thread is refused, not given the claim
  EXPECT_TRUE(check.CalledByOwner());

  check.Release();
  bool claimed = false;
  bool again = false;
  std::thread([&] {
    claimed = check.CalledByOwner();
    again = check.CalledByOwner();
  }).join();
  EXPECT_TRUE(claimed);
  EXPECT_TRUE(again);
  EXPECT_FALSE(check.CalledByOwner());  // the first owner gave it up
}

}  // namespace
}  // namespace viewmat::common
