#ifndef VIEWMAT_COMMON_RANDOM_H_
#define VIEWMAT_COMMON_RANDOM_H_

#include <cstdint>
#include <limits>

namespace viewmat {

/// The SplitMix64 output function: a bijective 64-bit mix with full
/// avalanche, so sequential or structured inputs spread uniformly.
inline uint64_t SplitMix64(uint64_t x) {
  uint64_t z = x + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic PRNG (xorshift128+) used by workload generation, hashing
/// salt selection and tests. Deterministic seeding keeps every experiment
/// reproducible run to run, which matters because EXPERIMENTS.md records
/// concrete numbers.
class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // SplitMix64 expansion of the seed into two nonzero state words.
    s0_ = SplitMix(&seed);
    s1_ = SplitMix(&seed);
    if (s0_ == 0 && s1_ == 0) s1_ = 1;
  }

  /// Uniform over all 64-bit values.
  uint64_t Next() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform in [0, bound). bound must be nonzero.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform real in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t SplitMix(uint64_t* state) {
    const uint64_t x = *state;
    *state += 0x9e3779b97f4a7c15ULL;
    return SplitMix64(x);
  }

  uint64_t s0_;
  uint64_t s1_;
};

}  // namespace viewmat

#endif  // VIEWMAT_COMMON_RANDOM_H_
