#include "tcr/util/rng.hpp"

#include "tcr/util/check.hpp"

namespace tcr {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  TCR_REQUIRE(n > 0, "Rng::below requires n > 0");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = below_limit(n);
  std::uint64_t r = next();
  while (r >= limit) r = next();
  return r % n;
}

std::vector<int> Rng::permutation(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

}  // namespace tcr
