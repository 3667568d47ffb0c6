#include "tcr/sim/traffic_gen.hpp"

#include <algorithm>

#include "tcr/util/check.hpp"

namespace tcr {

namespace {

__extension__ using u128 = unsigned __int128;

// r % n without a divide (Lemire, Kaser & Kurz, "Faster remainder by direct
// computation", 2019): with m = ceil(2^128 / n), r % n is the top 64 bits of
// (m * r mod 2^128) * n, exact for every 64-bit r and n.
std::uint64_t fastmod(std::uint64_t r, u128 m, std::uint64_t n) {
  const u128 low = m * r;
  const u128 bottom = (static_cast<u128>(static_cast<std::uint64_t>(low)) * n) >> 64;
  const u128 top = (low >> 64) * n;
  return static_cast<std::uint64_t>((bottom + top) >> 64);
}

}  // namespace

TrafficGen::TrafficGen(const TorusRouting& routing, double injection_rate, std::uint64_t seed)
    : routing_(routing), rate_(injection_rate), rng_(seed) {
  TCR_REQUIRE(injection_rate >= 0.0 && injection_rate <= 1.0,
              "injection rate must lie in [0, 1]");
  cumulative_.resize(routing.torus().num_nodes());
}

TrafficGen::TrafficGen(const TorusRouting& routing, double injection_rate,
                       std::vector<int> perm, std::uint64_t seed)
    : TrafficGen(routing, injection_rate, seed) {
  TCR_REQUIRE(static_cast<int>(perm.size()) == routing.torus().num_nodes(),
              "permutation size mismatch");
  perm_ = std::move(perm);
}

std::optional<Path> TrafficGen::maybe_inject(int node) {
  if (rng_.uniform() >= rate_) return std::nullopt;
  const Torus& t = routing_.torus();
  int dst;
  if (perm_.empty()) {
    dst = static_cast<int>(rng_.below(t.num_nodes()));
  } else {
    dst = perm_[node];
  }
  if (dst == node) return std::nullopt;
  return sample_path(node, dst);
}

void TrafficGen::build_cumulative(int e) {
  const auto& paths = routing_.paths(e);
  auto& cum = cumulative_[e];
  cum.reserve(paths.size());
  double acc = 0.0;
  for (const auto& wp : paths) {
    acc += wp.weight;
    cum.push_back(acc);
  }
}

void TrafficGen::prepare() {
  if (prepared_) return;
  const Torus& t = routing_.torus();
  const int n = t.num_nodes();
  path_table_.clear();
  path_base_.assign(n, 0);
  for (int e = 1; e < n; ++e) {
    const auto& paths = routing_.paths(e);
    path_base_[e] = static_cast<std::uint32_t>(path_table_.size());
    for (const auto& wp : paths) {
      max_path_len_ = std::max(max_path_len_, static_cast<int>(wp.path.channels.size()));
      path_table_.push_back(&wp.path);
    }
    if (cumulative_[e].empty() && !paths.empty()) build_cumulative(e);
  }
  // The simulator's source backlog packs a path id into 31 bits.
  TCR_REQUIRE(path_table_.size() < (std::size_t{1} << 31),
              "routing offers too many paths for 31-bit path ids");
  node_x_.resize(n);
  node_y_.resize(n);
  for (int v = 0; v < n; ++v) {
    node_x_[v] = t.x_of(v);
    node_y_[v] = t.y_of(v);
  }
  const auto nodes = static_cast<std::uint64_t>(n);
  below_limit_ = Rng::below_limit(nodes);
  const u128 m = ~u128{0} / nodes + 1;
  mod_hi_ = static_cast<std::uint64_t>(m >> 64);
  mod_lo_ = static_cast<std::uint64_t>(m);
  prepared_ = true;
}

std::optional<TrafficGen::PathDraw> TrafficGen::draw(int node, Rng& rng) const {
  if (rng.uniform() >= rate_) return std::nullopt;
  int dst;
  if (perm_.empty()) {
    // Rng::below(num_nodes) with the limit hoisted and the reduction
    // division-free.
    std::uint64_t r = rng.next();
    while (r >= below_limit_) r = rng.next();
    const auto nodes = static_cast<std::uint64_t>(node_x_.size());
    dst = static_cast<int>(fastmod(r, (static_cast<u128>(mod_hi_) << 64) | mod_lo_, nodes));
  } else {
    dst = perm_[node];
  }
  if (dst == node) return std::nullopt;
  // Torus::offset(node, dst): per-coordinate difference, wrapped by one
  // conditional add.
  const int k = routing_.torus().k();
  int ox = node_x_[dst] - node_x_[node];
  if (ox < 0) ox += k;
  int oy = node_y_[dst] - node_y_[node];
  if (oy < 0) oy += k;
  const int e = ox + k * oy;
  const auto& cum = cumulative_[e];
  TCR_REQUIRE(!cum.empty(), "routing offers no path for requested pair");
  const double u = rng.uniform() * cum.back();
  std::size_t idx = std::lower_bound(cum.begin(), cum.end(), u) - cum.begin();
  if (idx >= cum.size()) idx = cum.size() - 1;
  return PathDraw{path_base_[e] + static_cast<std::uint32_t>(idx), dst};
}

Path TrafficGen::sample_path(int src, int dst) {
  const Torus& t = routing_.torus();
  const int e = t.offset(src, dst);
  const auto& paths = routing_.paths(e);
  TCR_REQUIRE(!paths.empty(), "routing offers no path for requested pair");
  auto& cum = cumulative_[e];
  if (cum.empty()) build_cumulative(e);
  const double u = rng_.uniform() * cum.back();
  std::size_t idx = std::lower_bound(cum.begin(), cum.end(), u) - cum.begin();
  if (idx >= paths.size()) idx = paths.size() - 1;
  return translate_path(t, paths[idx].path, src);
}

}  // namespace tcr
