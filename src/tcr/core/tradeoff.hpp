// Locality-vs-throughput tradeoff sweeps (paper Figures 1 and 6): solve the
// locality-constrained design LP (10)/(15) over a grid of average path
// lengths and report the optimal throughput at each, normalized the way the
// paper plots it (throughput as a fraction of capacity, path length as a
// multiple of the minimal average).
#pragma once

#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tcr/core/arc_flow.hpp"
#include "tcr/guard/guard.hpp"
#include "tcr/util/thread_pool.hpp"

namespace tcr::guard {
class JournalWriter;
}

namespace tcr {

/// One point of a Figure 1/6 tradeoff curve: the locality bound and the
/// best certified throughput the design LP achieved under it.
struct TradeoffPoint {
  /// Normalized H_avg (eq. 5 divided by the minimal average hop count;
  /// >= 1, where 1 = minimal routing) — the figures' y-axis.
  double locality = 0.0;
  /// Optimal Theta / capacity at that locality, in [0, 1] (LP (10)
  /// worst-case, LP (15) average-case) — the figures' x-axis. NaN when the
  /// point was not solved to a certified optimum — consumers must mark it
  /// unsolved, never plot it as zero throughput (obs::Json already renders
  /// NaN as null).
  double capacity_fraction = std::numeric_limits<double>::quiet_NaN();
  lp::Status status = lp::Status::Numerical;  ///< LP stop status of the point
  std::string note;                ///< solver stop diagnosis when not Optimal
  lp::Certificate certificate;     ///< independent KKT check of the point's LP
  /// Warm-start adoption outcome of the point's solve ("cold"/"accepted"/
  /// "repaired"/"rejected"; see lp::Solution::warm_start).
  std::string warm_start = "cold";
  /// Simplex iterations the point's solve used (budget diagnosis).
  long iterations = 0;
  /// Where the value came from:
  ///   "measured"  — solved in this run;
  ///   "resumed"   — replayed verbatim from a checkpoint journal;
  ///   "degraded"  — the solve blew its budget or exhausted its recovery
  ///                 retries; capacity_fraction, when finite, is *interpolated*
  ///                 per §5.3 (eq. 14) from certified neighbors, not measured;
  ///   "skipped"   — abandoned on external cancellation (signal); a resumed
  ///                 run will compute it properly.
  /// Gates must never treat degraded/skipped points as measurements.
  std::string provenance = "measured";

  bool solved() const { return status == lp::Status::Optimal; }
  bool degraded() const { return provenance == "degraded"; }
};

/// How a sweep executes its points.
struct SweepConfig {
  /// Reuse each point's simplex basis to warm-start the next point of the
  /// same chain. Localities are solved in the order given; an ascending grid
  /// keeps the previous basis primal-feasible under the relaxed <= bound, so
  /// warm points skip phase 1 entirely (lp.warmstart.* counters tell).
  bool warm_start = true;
  /// Number of contiguous chunks the points are partitioned into; each chunk
  /// shares one incrementally-updated design model and one basis chain.
  /// 0 -> the pool size when sweeping on a pool, else 1. The partition — and
  /// therefore every solve's warm-start seed — depends only on
  /// (points, chains), so parallel and serial sweeps of the same
  /// configuration produce identical point series.
  int chains = 0;

  // ---- run control (all optional, none owned) ----
  /// Cooperative cancellation/budget token. Checked before every point and
  /// threaded into each solve via SimplexOptions::cancel by the caller;
  /// once it fires, in-flight points stop with lp::Status::Cancelled and
  /// remaining points are labeled without being attempted (the degradation
  /// post-pass assigns "degraded" or "skipped" by the stop reason).
  guard::CancelToken* cancel = nullptr;
  /// Checkpoint journal: every point that reaches a terminal (non-cancelled)
  /// status is appended as SweepCheckpoint::encode(index, point, basis),
  /// durably, the moment it completes. Shared by parallel chains.
  guard::JournalWriter* journal = nullptr;
  /// Previously completed points (loaded from a journal): replayed verbatim
  /// with provenance "resumed", and their journaled bases re-chain the warm
  /// starts, so a killed run resumed with the same grid/options reproduces
  /// the uninterrupted point series bitwise.
  const struct SweepResume* resume = nullptr;
};

/// Completed points of an earlier (killed) sweep, keyed by point index.
struct SweepResume {
  std::map<int, std::pair<TradeoffPoint, lp::Basis>> points;

  bool has(int index) const { return points.find(index) != points.end(); }
};

/// Codec for one journaled sweep point: the TradeoffPoint result plus the
/// exported simplex basis, with its dual steepest-edge weights, that
/// warm-starts the next point. Version 2; a version-1 payload (no weights)
/// is refused, since a resume from it would not pivot as the run did. Binary and
/// machine-local (doubles are stored bit-exact — resume must reproduce the
/// uninterrupted run bitwise; journals are not an interchange format).
struct SweepCheckpoint {
  static std::string encode(int index, const TradeoffPoint& pt, const lp::Basis& basis);
  /// Strict decode; false on any truncation, trailing bytes or version
  /// mismatch (the journal layer already CRC-checks payload integrity).
  static bool decode(const std::string& payload, int* index, TradeoffPoint* pt,
                     lp::Basis* basis);
};

/// Load a checkpoint journal written by SweepConfig::journal. Returns false
/// with a position-bearing *error on hard corruption; a torn final record
/// (killed mid-append) is dropped and reported via *truncated_tail.
bool load_sweep_resume(const std::string& path, SweepResume* out, bool* truncated_tail,
                       std::string* error);

/// Degradation post-pass (run by every sweep; exposed so tests can pin the
/// §5.3 arithmetic). Points stopped by a budget (`reason` Deadline/
/// Iterations/Memory) or whose recovery retries exhausted (Status::Numerical)
/// become "degraded": when certified neighbors exist on both sides, the
/// capacity fraction is filled with the eq. 14 harmonic interpolation
///   theta(alpha) = 1 / (alpha/theta_j + (1-alpha)/theta_k),
///   alpha = (L_k - L_i) / (L_k - L_j)
/// and the note names the anchor points; one-sided points stay NaN but are
/// still flagged. Points cancelled by an external signal become "skipped".
void fill_degraded_points(std::vector<TradeoffPoint>& points, guard::StopReason reason);

/// Worst-case curve (Figure 1): for each normalized locality L, the best
/// achievable worst-case throughput as a capacity fraction (LP (10) with
/// H_avg <= L, symmetry-reduced per §4).
std::vector<TradeoffPoint> worst_case_tradeoff(const Torus& torus,
                                               const std::vector<double>& localities,
                                               const lp::SimplexOptions& opts = {},
                                               ThreadPool* pool = nullptr,
                                               const SweepConfig& sweep = {});

/// Average-case curve (Figure 6) using permutation traffic samples
/// (LP (15) with H_avg <= L); capacity fractions use the arithmetic-mean
/// approximation of eq. 9.
std::vector<TradeoffPoint> average_case_tradeoff(const Torus& torus,
                                                 const std::vector<std::vector<int>>& samples,
                                                 const std::vector<double>& localities,
                                                 const lp::SimplexOptions& opts = {},
                                                 ThreadPool* pool = nullptr,
                                                 const SweepConfig& sweep = {});

/// Evenly spaced grid of n normalized localities in [lo, hi] (lo = 1 is
/// minimal routing; Figure 1 sweeps [1, 2]).
std::vector<double> locality_grid(double lo, double hi, int n);

}  // namespace tcr
