// Packet sources for the flit simulator: Bernoulli injection at a configured
// rate (flits per node per cycle — each node flips one coin per cycle),
// destinations drawn from a traffic pattern (uniform or a fixed
// permutation), and paths sampled from an oblivious routing algorithm's
// canonical distribution (translated to the actual source).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tcr/routing/routing.hpp"
#include "tcr/util/rng.hpp"

namespace tcr {

class TrafficGen {
 public:
  /// Uniform destinations.
  TrafficGen(const TorusRouting& routing, double injection_rate, std::uint64_t seed);
  /// Fixed permutation destinations (perm[s] = d).
  TrafficGen(const TorusRouting& routing, double injection_rate, std::vector<int> perm,
             std::uint64_t seed);

  /// Packet (destination + sampled path) injected at `node` this cycle, if
  /// the Bernoulli coin says so. Self-addressed uniform picks are dropped
  /// (they never enter the network).
  std::optional<Path> maybe_inject(int node);

  /// A draw() result: the id of the canonical (source-0) path sampled for
  /// the pair's offset — path(id) resolves it, and the caller translates it
  /// to the actual source — plus the destination it was drawn for.
  struct PathDraw {
    std::uint32_t path_id = 0;
    int dst = 0;
  };

  /// Finalize the sampling tables (cumulative path weights for every offset,
  /// the flat path-id table, the longest path length on offer, and the
  /// node-coordinate and rejection-limit tables draw() uses in place of
  /// divides). Must be called before draw(); afterwards the generator is
  /// immutable, so draw() is safe to call concurrently from many threads
  /// with per-caller Rng streams.
  void prepare();

  /// Stateless variant of maybe_inject for the parallel simulator: the same
  /// Bernoulli coin / destination / path draws, but consuming the caller's
  /// `rng` (one independent stream per node keeps injection identical
  /// regardless of how nodes are sharded across threads). The arithmetic
  /// is Rng::below's and Torus::offset's without a hardware divide, so the
  /// results and the stream consumed are identical. Requires prepare();
  /// const and thread-safe.
  std::optional<PathDraw> draw(int node, Rng& rng) const;

  /// Canonical path of a draw()'s path_id; valid after prepare().
  const Path& path(std::uint32_t id) const { return *path_table_[id]; }

  /// Configured Bernoulli rate, flits per node per cycle.
  double injection_rate() const { return rate_; }
  const TorusRouting& routing() const { return routing_; }
  /// Longest path (in hops) the routing offers; valid after prepare().
  int max_path_len() const { return max_path_len_; }

 private:
  Path sample_path(int src, int dst);
  void build_cumulative(int e);

  const TorusRouting& routing_;
  double rate_;
  std::vector<int> perm_;  // empty = uniform
  Rng rng_;
  bool prepared_ = false;
  int max_path_len_ = 0;
  // Per-offset cumulative weights for fast path sampling.
  std::vector<std::vector<double>> cumulative_;
  // draw() tables, built by prepare(): every offset's canonical paths in
  // one flat id space (offset e's paths start at path_base_[e]), node
  // coordinates, and Rng::below's rejection limit and reduction constant
  // for the node count.
  std::vector<const Path*> path_table_;
  std::vector<std::uint32_t> path_base_;
  std::vector<std::int32_t> node_x_, node_y_;
  std::uint64_t below_limit_ = 0;
  std::uint64_t mod_hi_ = 0, mod_lo_ = 0;  // ceil(2^128 / num_nodes)
};

}  // namespace tcr
