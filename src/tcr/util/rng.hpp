// Deterministic, fast pseudo-random number generation.
//
// xoshiro256** seeded via splitmix64. Deterministic across platforms so test
// and benchmark results are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

namespace tcr {

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

  // next() and uniform() are inline: the simulator draws one or three of
  // them per node per cycle, and an out-of-line call costs more than the
  // generator itself.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of next().
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Rejection bound below(n) uses to remove modulo bias: next() draws at
  /// or above it are redrawn, and the first one below it is reduced mod n.
  /// Callers drawing many values for one n hoist it.
  static constexpr std::uint64_t below_limit(std::uint64_t n) { return max() - max() % n; }

  /// Uniformly random permutation of {0, ..., n-1} (Fisher-Yates).
  std::vector<int> permutation(int n);

  /// Shuffle a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = below(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
};

}  // namespace tcr
