#include "tcr/metrics/loads.hpp"

#include <algorithm>

#include "tcr/util/check.hpp"

namespace tcr {

namespace {

// gamma[c translated by s] += loads[c] for every channel c. Channels are
// numbered channel(node, d) = 4 node + d, and translation moves the node.
void add_translated(const Torus& t, int s, const double* loads, std::vector<double>& gamma) {
  for (int node = 0; node < t.num_nodes(); ++node) {
    const double* from = loads + t.channel(node, Dir::PX);
    double* to = gamma.data() + t.channel(t.translate_node(node, s), Dir::PX);
    for (int d = 0; d < kNumDirs; ++d) to[d] += from[d];
  }
}

}  // namespace

std::vector<double> channel_loads(const TorusRouting& r, const TrafficMatrix& lambda) {
  const Torus& t = r.torus();
  const int n = t.num_nodes(), nc = t.num_channels();
  TCR_REQUIRE(lambda.rows() == n && lambda.cols() == n, "traffic matrix size mismatch");
  const DenseMatrix& l0 = r.load_table();
  // Each source's loads are summed in the canonical frame, sum_e w_e L0[e],
  // by whole-row axpys (a zero entry adds an exact zero), then translated
  // once onto the channels they load.
  std::vector<double> gamma(static_cast<std::size_t>(nc), 0.0), local(gamma.size());
  for (int s = 0; s < n; ++s) {
    std::fill(local.begin(), local.end(), 0.0);
    for (int e = 0; e < n; ++e) {
      const double w = lambda(s, t.translate_node(s, e));
      if (w == 0.0) continue;
      const double* row = l0.row(e);
      for (int c = 0; c < nc; ++c) local[c] += w * row[c];
    }
    add_translated(t, s, local.data(), gamma);
  }
  return gamma;
}

std::vector<double> channel_loads(const TorusRouting& r, const std::vector<int>& perm) {
  const Torus& t = r.torus();
  const int n = t.num_nodes(), nc = t.num_channels();
  TCR_REQUIRE(static_cast<int>(perm.size()) == n, "permutation size mismatch");
  const DenseMatrix& l0 = r.load_table();
  std::vector<double> gamma(static_cast<std::size_t>(nc), 0.0);
  for (int s = 0; s < n; ++s) add_translated(t, s, l0.row(t.offset(s, perm[s])), gamma);
  return gamma;
}

double max_channel_load(const TorusRouting& r, const TrafficMatrix& lambda) {
  // Torus channels all have unit bandwidth, so gamma_max is a plain max.
  const auto gamma = channel_loads(r, lambda);
  return *std::max_element(gamma.begin(), gamma.end());
}

double max_channel_load(const TorusRouting& r, const std::vector<int>& perm) {
  const auto gamma = channel_loads(r, perm);
  return *std::max_element(gamma.begin(), gamma.end());
}

double throughput(const TorusRouting& r, const TrafficMatrix& lambda) {
  return 1.0 / max_channel_load(r, lambda);
}

double uniform_max_load(const TorusRouting& r) {
  // Under uniform traffic the load on a channel equals the class-average of
  // the canonical table: gamma = (1/N) sum_e sum_{c in class} L0[e][c].
  const Torus& t = r.torus();
  const DenseMatrix& l0 = r.load_table();
  double best = 0.0;
  for (int dir = 0; dir < kNumDirs; ++dir) {
    double sum = 0.0;
    for (int e = 0; e < t.num_nodes(); ++e) {
      for (int n = 0; n < t.num_nodes(); ++n) sum += l0(e, 4 * n + dir);
    }
    best = std::max(best, sum / t.num_nodes());
  }
  return best;
}

double uniform_capacity_fraction(const TorusRouting& r) {
  return r.torus().ideal_uniform_load() / uniform_max_load(r);
}

}  // namespace tcr
