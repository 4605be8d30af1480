#ifndef VIEWMAT_EXAMPLES_CHECK_H_
#define VIEWMAT_EXAMPLES_CHECK_H_

// Status handling for the examples: a failing library call prints its
// status and exits 1, so the example's ctest fails with it.

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/status.h"

namespace viewmat::examples {

inline void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "library call failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Check(StatusOr<T> value) {
  Check(value.status());
  return *std::move(value);
}

}  // namespace viewmat::examples

#endif  // VIEWMAT_EXAMPLES_CHECK_H_
