#include "storage/bloom_filter.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"

namespace viewmat::storage {

BloomFilter::BloomFilter(size_t bits, int hashes)
    : bits_(std::max<size_t>(bits, 64)),
      hashes_(std::clamp(hashes, 1, 16)),
      words_((bits_ + 63) / 64, 0) {}

BloomFilter BloomFilter::ForExpectedKeys(size_t expected_keys,
                                         double fp_rate) {
  VIEWMAT_CHECK(fp_rate > 0.0 && fp_rate < 1.0);
  const double n = static_cast<double>(std::max<size_t>(expected_keys, 1));
  const double ln2 = std::log(2.0);
  const double m_ideal = -n * std::log(fp_rate) / (ln2 * ln2);
  // The constructor clamps the table to at least 64 bits; the hash count
  // must be chosen for the table actually built, not the ideal one, or
  // tiny filters end up with far too few hashes and miss the requested
  // false-positive rate (k = m/n * ln2 is only optimal for the real m).
  const size_t bits =
      std::max<size_t>(static_cast<size_t>(std::ceil(m_ideal)), 64);
  const double m = static_cast<double>(bits);
  const int k = std::max(1, static_cast<int>(std::lround(m / n * ln2)));
  return BloomFilter(bits, k);
}

uint64_t BloomFilter::Mix(uint64_t x, uint64_t salt) {
  // Salted SplitMix64; good avalanche on sequential keys.
  return SplitMix64(x + salt);
}

void BloomFilter::Add(uint64_t key) {
  const uint64_t h1 = Mix(key, 0x8badf00d);
  const uint64_t h2 = Mix(key, 0xdeadbeef) | 1;  // odd stride
  for (int i = 0; i < hashes_; ++i) {
    const size_t bit = (h1 + static_cast<uint64_t>(i) * h2) % bits_;
    words_[bit >> 6] |= (1ULL << (bit & 63));
  }
  ++keys_added_;
}

bool BloomFilter::MayContain(uint64_t key) const {
  const uint64_t h1 = Mix(key, 0x8badf00d);
  const uint64_t h2 = Mix(key, 0xdeadbeef) | 1;
  for (int i = 0; i < hashes_; ++i) {
    const size_t bit = (h1 + static_cast<uint64_t>(i) * h2) % bits_;
    if ((words_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

void BloomFilter::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
  keys_added_ = 0;
}

double BloomFilter::ExpectedFpRate() const {
  const double k = hashes_;
  const double n = static_cast<double>(keys_added_);
  const double m = static_cast<double>(bits_);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

}  // namespace viewmat::storage
