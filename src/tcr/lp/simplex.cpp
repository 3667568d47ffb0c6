#include "tcr/lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "tcr/fault/fault.hpp"
#include "tcr/guard/guard.hpp"
#include "tcr/lin/sparse.hpp"
#include "tcr/lp/basis_factor.hpp"
#include "tcr/lp/certify.hpp"
#include "tcr/lp/dense_simplex.hpp"
#include "tcr/lp/pivot_kernels.hpp"
#include "tcr/lp/standard_form.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/telemetry/telemetry.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/util/check.hpp"
#include "tcr/util/rng.hpp"

namespace tcr::lp {

namespace {

// Registry metrics of the solver, resolved once per process; the returned
// references stay valid forever so the hot loop never touches the registry.
struct SimplexMetrics {
  obs::Counter& solves = obs::Registry::instance().counter("lp.simplex.solves");
  obs::Counter& iterations = obs::Registry::instance().counter("lp.simplex.iterations");
  obs::Counter& phase1_iterations =
      obs::Registry::instance().counter("lp.simplex.phase1_iterations");
  obs::Counter& refactorizations =
      obs::Registry::instance().counter("lp.simplex.refactorizations");
  obs::Counter& degenerate_pivots =
      obs::Registry::instance().counter("lp.simplex.degenerate_pivots");
  obs::Counter& bland_activations =
      obs::Registry::instance().counter("lp.simplex.bland_activations");
  obs::Counter& bound_flips = obs::Registry::instance().counter("lp.simplex.bound_flips");
  // Start-basis outcomes, whatever built the basis: adopted unchanged
  // (accepted), adopted after patching — status fixes, or singular
  // positions swapped out for logical columns — (repaired), or thrown away
  // for a cold start because it is malformed or singular beyond repair
  // (rejected). phase1_skipped counts solves where the adopted basis was
  // primal-feasible (or the dual phase made it so) on a model whose
  // all-logical start is not; an adopted basis that is neither runs phase 1
  // from itself and is not counted there.
  obs::Counter& warm_attempts = obs::Registry::instance().counter("lp.warmstart.attempts");
  obs::Counter& warm_accepted = obs::Registry::instance().counter("lp.warmstart.accepted");
  obs::Counter& warm_repaired = obs::Registry::instance().counter("lp.warmstart.repaired");
  obs::Counter& warm_rejected = obs::Registry::instance().counter("lp.warmstart.rejected");
  obs::Counter& warm_phase1_skipped =
      obs::Registry::instance().counter("lp.warmstart.phase1_skipped");
  // Dual simplex phase. solves = bases routed into the dual phase;
  // reoptimized = dual iterations reached primal feasibility (the solve then
  // finishes with a clean primal confirmation); fallbacks = the dual phase
  // gave up (dual-unbounded => primal infeasible, stall, or numerical
  // trouble) and phase 1 ran from the basis it ended on;
  // infeasible_bases = candidate bases that failed the dual-feasibility
  // screen and took the primal path directly.
  obs::Counter& dual_solves = obs::Registry::instance().counter("lp.dual.solves");
  obs::Counter& dual_iterations = obs::Registry::instance().counter("lp.dual.iterations");
  obs::Counter& dual_reoptimized = obs::Registry::instance().counter("lp.dual.reoptimized");
  obs::Counter& dual_fallbacks = obs::Registry::instance().counter("lp.dual.fallbacks");
  obs::Counter& dual_infeasible_bases =
      obs::Registry::instance().counter("lp.dual.infeasible_bases");
  obs::Histogram& degenerate_runs =
      obs::Registry::instance().histogram("lp.simplex.degenerate_run", 1.0, 2.0);
  // Largest scaled gap |d_carried - d_fresh| / (1 + |d_fresh|) between the
  // reduced costs carried across pivots and the ones recomputed after each
  // refactorization, one sample per mid-loop refactorization.
  obs::Histogram& price_drift =
      obs::Registry::instance().histogram("lp.simplex.price_drift", 1e-18, 2.0);
  // Per-phase and per-kernel time. The kernel timers wrap inner-loop spans
  // and only read clocks when Registry::timing_enabled().
  obs::Timer& t_total = obs::Registry::instance().timer("lp.simplex.time.total");
  obs::Timer& t_phase1 = obs::Registry::instance().timer("lp.simplex.time.phase1");
  obs::Timer& t_phase2 = obs::Registry::instance().timer("lp.simplex.time.phase2");
  obs::Timer& t_dual = obs::Registry::instance().timer("lp.simplex.time.dual");
  obs::Timer& t_pricing = obs::Registry::instance().timer("lp.simplex.time.pricing");
  obs::Timer& t_ratio_test = obs::Registry::instance().timer("lp.simplex.time.ratio_test");
  obs::Timer& t_ftran = obs::Registry::instance().timer("lp.simplex.time.ftran");
  obs::Timer& t_btran = obs::Registry::instance().timer("lp.simplex.time.btran");
  obs::Timer& t_refactor = obs::Registry::instance().timer("lp.simplex.time.refactor");

  static SimplexMetrics& get() {
    static SimplexMetrics m;
    return m;
  }
};

// Which recovery-ladder stage rescued a breakdown (or that none did).
struct RecoveryMetrics {
  obs::Counter& attempts = obs::Registry::instance().counter("lp.recovery.attempts");
  obs::Counter& exhausted = obs::Registry::instance().counter("lp.recovery.exhausted");
  obs::Counter& rescued_reseed =
      obs::Registry::instance().counter("lp.recovery.rescued.reseed");
  obs::Counter& rescued_careful =
      obs::Registry::instance().counter("lp.recovery.rescued.careful");
  obs::Counter& rescued_dense =
      obs::Registry::instance().counter("lp.recovery.rescued.dense");

  static RecoveryMetrics& get() {
    static RecoveryMetrics m;
    return m;
  }
};

// Certification tolerances are the solver tolerances times this factor:
// the checker measures a different norm than the solver controls, so it
// needs headroom; 10x is conservative but still catches real breakage.
constexpr double kCertifyTolFactor = 10.0;
// The dense fallback stage only runs when rows + cols <= this: it is
// O(m^2 n) per iteration, and beyond this it would dominate the solve time.
constexpr int kDenseFallbackMaxDim = 600;
// Convergence counters (lp.iteration, lp.objective, ...) are sampled every
// this many iterations while a tracer or heartbeat is listening.
constexpr long kSampleEvery = 32;

using detail::BfrtCand;
using detail::kAtLower;
using detail::kAtUpper;
using detail::kBasic;
using detail::kFree;
using detail::StandardForm;
using detail::VarStatus;

class RevisedSimplex {
 public:
  RevisedSimplex(StandardForm sf, const SimplexOptions& opt, const Basis* start = nullptr)
      : sf_(std::move(sf)),
        opt_(opt),
        start_(start),
        m_(sf_.m),
        n_(sf_.ntotal),
        a_(sf_.m, sf_.ntotal, sf_.triplets),
        factor_(a_, opt.refactor_every),
        rng_(opt.seed) {
    // a_ holds the matrix from here on; free the triplets before the
    // row-wise copy is built.
    std::vector<Triplet>().swap(sf_.triplets);
    a_rows_ = RowProduct(a_);
    all_logical_basis();
    max_iters_ = opt_.max_iterations > 0 ? opt_.max_iterations
                                         : 200L * (m_ + n_) + 10000L;
    d_.assign(n_, 0.0);
    cb_.assign(m_, 0.0);
    er_.assign(m_, 0.0);
    blo_.assign(m_, 0.0);
    bup_.assign(m_, 0.0);
    attr_slot_.assign(n_, -1);
  }

  Solution run() {
    // One span per solve; the same object feeds the t_total registry timer
    // (Span's dual-consumer form), so the site is not instrumented twice.
    trace::Span span("lp.solve", met_.t_total);
    span.attr("m", m_);
    span.attr("n", n_);
    Solution sol = run_impl();
    span.attr("status", to_string(sol.status));
    span.attr("iterations", sol.iterations);
    span.attr("warm_start", sol.warm_start);
    span.attr("dual_iterations", sol.dual_iterations);
    return sol;
  }

 private:
  Solution run_impl() {
    met_.solves.add(1);
    Solution sol;
    if (opt_.cancel != nullptr && opt_.cancel->check()) {
      // A fired token means a whole-run stop: refuse the solve outright so
      // sweeps and the recovery ladder unwind without touching the basis.
      return finish(sol, Status::Cancelled);
    }
    WarmAdopt start = WarmAdopt::kRejected;
    if (start_ != nullptr && !start_->empty()) start = apply_warm(*start_);
    if (start == WarmAdopt::kRejected) {
      all_logical_basis();
      if (!refactorize()) return finish(sol, Status::Numerical);
      start = WarmAdopt::kPhase1;  // which stops at once on a feasible point
    }

    // ---- dual simplex phase ----
    // A start basis that survived adoption dual-feasible but whose point an
    // rhs edit left primal-infeasible (kDual) is driven back to optimality
    // by dual pivots. Success skips phase 1 and the perturbed primal pass
    // outright; failure (dual-unbounded, stall, or numerical alarm) hands
    // the basis the dual phase ended on to phase 1.
    if (start == WarmAdopt::kDual) {
      met_.dual_solves.add(1);
      // The MCF models are massively dual degenerate: swaths of nonbasic
      // columns sit at reduced cost zero, so unperturbed dual ratio tests
      // collapse into zero-length pivots and the phase stalls. Run the dual
      // pivots on the same deterministic tiny perturbation phase 2 uses —
      // the entering ratios become decisive — and let the clean true-cost
      // primal pass below absorb the O(1e-9) dual wobble it introduces.
      Status sd;
      const long iters_before = iters_;
      {
        trace::Span t("lp.dual", met_.t_dual);
        sd = optimize_dual(opt_.perturb ? perturbed_costs() : sf_.cost);
        // The iterations the dual loop ran (reconfirm() rewinds the ones it
        // redoes); an IterationLimit exit counted one more before stopping.
        sol.dual_iterations = iters_ - iters_before - (sd == Status::IterationLimit ? 1 : 0);
        t.attr("status", to_string(sd));
        t.attr("iterations", sol.dual_iterations);
      }
      met_.dual_iterations.add(sol.dual_iterations);
      // The weights describe the basis the dual phase ended on; finish()
      // exports them only if that is the basis the solve ends on.
      sol.basis.basic = basic_;
      sol.basis.weights = std::exchange(dse_, {});
      if (sd == Status::Cancelled || sd == Status::IterationLimit) return finish(sol, sd);
      if (sd == Status::Optimal) {
        met_.dual_reoptimized.add(1);
        if (sf_.need_phase1) met_.warm_phase1_skipped.add(1);
      } else {
        // Fall back: phase 1 from the basis the dual phase ended on, with
        // any singular positions repaired (see factor_basis()).
        met_.dual_fallbacks.add(1);
        bool repaired = false;
        if (!factor_basis(repaired)) return finish(sol, Status::Numerical);
        start = WarmAdopt::kPhase1;
      }
    }

    if (start == WarmAdopt::kPhase1) {
      // Phase 1 from the current basis: minimize the sum of the basic
      // variables' bound violations until none is left.
      Status s1;
      const long iters_before = iters_;
      {
        trace::Span t("lp.phase1", met_.t_phase1);
        s1 = optimize(cost1_, /*phase1=*/true);
      }
      cost1_.clear();
      sol.phase1_iterations = iters_ - iters_before;
      met_.phase1_iterations.add(sol.phase1_iterations);
      if (s1 != Status::Optimal) return finish(sol, s1);
      phase1_residual_ = primal_infeasibility();
      if (phase1_residual_ > 10 * opt_.feas_tol * (1 + m_ * 0.01))
        return finish(sol, Status::Infeasible);
    } else if (start == WarmAdopt::kFeasible && sf_.need_phase1) {
      // The adopted basis represents a primal-feasible point, so phase 1
      // has nothing to do: go straight to optimizing the true costs.
      met_.warm_phase1_skipped.add(1);
    }

    Status s2;
    {
      trace::Span t("lp.phase2", met_.t_phase2);
      // After a successful dual phase the basis is already primal-feasible
      // and dual-feasible to tolerance; a single clean pass confirms
      // optimality. The anti-degeneracy perturbation would only pivot away
      // from the answer and back.
      if (opt_.perturb && start != WarmAdopt::kDual) {
        // A clean pass with the true costs follows the perturbed one.
        s2 = optimize(perturbed_costs(), /*phase1=*/false);
        if (s2 == Status::Optimal) s2 = optimize(sf_.cost, false);
      } else {
        s2 = optimize(sf_.cost, false);
      }
    }

    if (s2 == Status::Optimal) extract(sol);
    return finish(sol, s2);
  }

 private:
  // Deterministic tiny cost perturbation (one rng_ draw per perturbed
  // column) that breaks the massive dual degeneracy of the MCF models. Free
  // variables stay unperturbed: their null directions (e.g. a constant
  // shift of dual potentials) would make the perturbed problem unbounded.
  std::vector<double> perturbed_costs() {
    std::vector<double> c = sf_.cost;
    for (int j = 0; j < n_; ++j) {
      if (!std::isfinite(sf_.lo[j]) && !std::isfinite(sf_.up[j])) continue;
      c[j] += 1e-9 * (1.0 + std::abs(c[j])) * (0.5 + rng_.uniform());
    }
    return c;
  }

  // ---- instrumentation -------------------------------------------------

  // Final per-solve bookkeeping: the verdict and iteration count, registry
  // counters, the exported basis, and the human-readable stop note for
  // non-optimal outcomes.
  Solution finish(Solution& sol, Status status) {
    sol.status = status;
    sol.iterations = iters_;
    charge_pending_iterations();
    met_.iterations.add(iters_);
    sol.basis.stat.assign(stat_.begin(), stat_.end());
    if (sol.basis.basic != basic_) sol.basis.weights.clear();
    sol.basis.basic = basic_;
    sol.warm_start = warm_outcome_;
    switch (sol.status) {
      case Status::Optimal:
        break;
      case Status::IterationLimit:
        sol.note = "iteration limit after " + std::to_string(iters_) + " iterations (" +
                   std::to_string(degenerate_total_) + " degenerate pivots, Bland mode x" +
                   std::to_string(bland_activations_) + ")";
        break;
      case Status::Infeasible:
        sol.note = "phase-1 optimum left residual infeasibility " +
                   std::to_string(phase1_residual_) + " after " +
                   std::to_string(sol.phase1_iterations) + " iterations";
        break;
      case Status::Unbounded:
        sol.note = "unbounded improving direction on column " +
                   std::to_string(unbounded_col_) + " at iteration " + std::to_string(iters_);
        break;
      case Status::Numerical:
        sol.note = "numerical breakdown after " + std::to_string(iters_) + " iterations, " +
                   std::to_string(refactor_count_) + " refactorizations";
        break;
      case Status::Cancelled:
        sol.note = "cancelled after " + std::to_string(iters_) + " iterations";
        if (opt_.cancel != nullptr) {
          const std::string why = opt_.cancel->note();
          if (!why.empty()) sol.note += ": " + why;
        }
        break;
    }
    return std::move(sol);
  }

  // ---- warm start ------------------------------------------------------

  // Nonbasic status a column falls back to when a warm basis cannot keep it
  // where it was: its start status (see standard_form.hpp).
  VarStatus default_nonbasic(int j) const { return detail::start_status(sf_.lo[j], sf_.up[j]); }

  // The all-logical start basis: every row's logical column basic, every
  // structural at its start status.
  void all_logical_basis() {
    stat_.assign(static_cast<std::size_t>(n_), kBasic);
    for (int j = 0; j < sf_.nstruct; ++j) stat_[j] = default_nonbasic(j);
    basic_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) basic_[i] = sf_.nstruct + i;
  }

  // Outcome of adopting a basis, which is factorized unless rejected, and so
  // how the solve starts. kFeasible: it represents a primal-feasible point,
  // so phase 1 is skipped. kDual: it is dual-feasible and primal-infeasible
  // — the rhs-edit sweep case — so the dual simplex phase re-optimizes it.
  // kPhase1: any other basis; phase 1 starts from it, as it does from the
  // all-logical one. kRejected: the basis is malformed or singular beyond
  // repair, and the solve cold-starts.
  enum class WarmAdopt { kRejected, kFeasible, kPhase1, kDual };

  // apply_warm()'s verdict, recorded where it is reached: exactly one of
  // lp.warmstart.{accepted,repaired,rejected} per attempt (their sum is
  // lp.warmstart.attempts, asserted by the property tests), and the solve's
  // warm_start label.
  WarmAdopt adopted(WarmAdopt start, bool patched) {
    (patched ? met_.warm_repaired : met_.warm_accepted).add(1);
    warm_outcome_ = patched ? "repaired" : "accepted";
    return start;
  }

  WarmAdopt rejected() {
    met_.warm_rejected.add(1);
    warm_outcome_ = "rejected";
    return WarmAdopt::kRejected;
  }

  // Dual-feasibility screen for a freshly adopted basis: are the phase-2
  // reduced costs sign-feasible? Fixed columns are skipped: any reduced
  // cost is feasible there. The tolerance is loose (10x opt_tol): the dual
  // ratio test absorbs mildly wrong signs by taking their slightly negative
  // ratio first, and the final clean primal pass re-checks optimality
  // exactly.
  bool dual_feasible() {
    priced_at_ = -1;
    reprice(sf_.cost, /*timed=*/false);
    const double tol = 10.0 * opt_.opt_tol;
    for (int j = 0; j < n_; ++j) {
      if (stat_[j] == kBasic || sf_.lo[j] == sf_.up[j]) continue;
      const double d = d_[j];
      if (stat_[j] == kAtLower) {
        if (d < -tol) return false;
      } else if (stat_[j] == kAtUpper) {
        if (d > tol) return false;
      } else if (std::abs(d) > tol) {  // free: reduced cost must vanish
        return false;
      }
    }
    return true;
  }

  bool primal_feasible() const {
    for (int i = 0; i < m_; ++i) {
      const int j = basic_[i];
      if (xb_[i] < sf_.lo[j] - opt_.feas_tol || xb_[i] > sf_.up[j] + opt_.feas_tol) return false;
    }
    return true;
  }

  // Factorize the basis; when it is singular, put the logical column of
  // each row the factorization left without a pivot at an unpivotable
  // position, demoting the occupant to its start status, and try once more.
  // Sets `patched` when it patches.
  bool factor_basis(bool& patched) {
    if (refactorize()) return true;
    patched = true;
    const std::vector<int>& positions = factor_.deficient_positions();
    const std::vector<int>& rows = factor_.deficient_rows();
    for (std::size_t k = 0; k < positions.size(); ++k) {
      const int i = positions[k], logical = sf_.nstruct + rows[k];
      if (stat_[logical] == kBasic) return false;  // cannot happen in exact arithmetic
      stat_[basic_[i]] = default_nonbasic(basic_[i]);
      basic_[i] = logical;
      stat_[logical] = kBasic;
    }
    return refactorize();
  }

  // Install a caller-supplied basis, repairing what can be repaired:
  // out-of-range statuses are re-derived and singular positions are
  // repaired (see factor_basis()). The factorized basis is then classified
  // once: primal-feasible (kFeasible); dual-feasible (kDual); or any other,
  // which phase 1 starts from (kPhase1). Only a malformed basis, or a
  // singular one beyond repair, is rejected.
  WarmAdopt apply_warm(const Basis& warm) {
    met_.warm_attempts.add(1);
    if (static_cast<int>(warm.basic.size()) != m_ ||
        static_cast<int>(warm.stat.size()) != n_) {
      return rejected();
    }
    bool patched = false;

    // Sanitize statuses against this model's bounds: a stale basis may pin a
    // column to a bound that no longer exists (or encode an out-of-range
    // status byte).
    std::vector<VarStatus> stat(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      VarStatus s = static_cast<VarStatus>(warm.stat[j]);
      if (warm.stat[j] > static_cast<std::uint8_t>(kFree) ||
          (s == kAtLower && !std::isfinite(sf_.lo[j])) ||
          (s == kAtUpper && !std::isfinite(sf_.up[j])) ||
          (s == kFree && (std::isfinite(sf_.lo[j]) || std::isfinite(sf_.up[j])))) {
        s = default_nonbasic(j);
        patched = true;
      }
      stat[j] = s;
    }

    // Validate the basic list: in range, duplicate-free, consistent with the
    // statuses (the basic list wins; stray kBasic statuses are demoted).
    std::vector<char> in_list(static_cast<std::size_t>(n_), 0);
    for (int i = 0; i < m_; ++i) {
      const int b = warm.basic[i];
      if (b < 0 || b >= n_ || in_list[b]) return rejected();
      in_list[b] = 1;
      if (stat[b] != kBasic) {
        stat[b] = kBasic;
        patched = true;
      }
    }
    for (int j = 0; j < n_; ++j) {
      if (stat[j] == kBasic && !in_list[j]) {
        stat[j] = default_nonbasic(j);
        patched = true;
      }
    }

    stat_ = std::move(stat);
    basic_ = warm.basic;
    if (!factor_basis(patched)) return rejected();
    if (primal_feasible()) return adopted(WarmAdopt::kFeasible, patched);
    // Dual screen: a basis an rhs edit left primal-infeasible but
    // dual-feasible goes to the dual phase.
    if (dual_feasible()) {
      // Its dual steepest-edge weights describe the basis as given: keep
      // them only when it was accepted unchanged, and only when each one is
      // a weight (0 = unknown, computed on first use).
      const std::vector<double>& wt = warm.weights;
      if (!patched && static_cast<int>(wt.size()) == m_ &&
          std::all_of(wt.begin(), wt.end(), [](double v) { return v >= 0.0 && v < kInf; })) {
        dse_ = wt;
      }
      return adopted(WarmAdopt::kDual, patched);
    }
    met_.dual_infeasible_bases.add(1);
    return adopted(WarmAdopt::kPhase1, patched);
  }

  // ---- run-control accounting -----------------------------------------

  // Safepoint: every 16 iterations, charge the iterations run since the
  // last charge against the token's cumulative budget and poll
  // deadline/RSS/signal (one predicted branch per iteration when no token
  // is armed). Charging the delta instead of a fixed window keeps the
  // account exact across phase boundaries and iteration-count rewinds.
  // Also the telemetry sampling site: heartbeats piggyback on the same
  // cadence (a relaxed flag load when --heartbeat is off), and the poll
  // only reads solver state, so it cannot perturb the pivot sequence.
  bool cancel_safepoint() {
    if ((iters_ & 15) != 0) return false;
    telemetry::poll();
    if (opt_.cancel == nullptr) return false;
    charge_pending_iterations();
    return opt_.cancel->check();
  }

  // Flush the partial charge window. Called from every solve exit path (via
  // finish()) so a solve that stops mid-window — Cancelled, IterationLimit,
  // Numerical, even Optimal — still charges the remainder; without this,
  // budgeted sweeps could overrun their iteration cap by up to 15 x points.
  void charge_pending_iterations() {
    if (opt_.cancel == nullptr || iters_ <= charged_iters_) return;
    opt_.cancel->charge_iterations(iters_ - charged_iters_);
    charged_iters_ = iters_;
  }

  // ---- basis linear algebra -------------------------------------------

  bool refactorize() {
    trace::Span t("lp.refactor", met_.t_refactor);
    met_.refactorizations.add(1);
    ++refactor_count_;
    if (!factor_.refactor(basic_)) return false;
    compute_basic_values();
    return true;
  }

  // Redo the current iteration on fresh factors, so that a verdict reached
  // on updated ones is confirmed or revised: refactorize and rewind the
  // iteration count. False when the refactorization fails.
  bool reconfirm() {
    if (!refactorize()) return false;
    --iters_;
    return true;
  }

  void compute_basic_values() {
    std::vector<double> rhs = sf_.b;
    for (int j = 0; j < n_; ++j) {
      if (stat_[j] == kBasic) continue;
      const double v = nonbasic_value(j);
      if (v != 0.0) a_.add_column_to(j, -v, rhs);
    }
    factor_.ftran(rhs, xb_);
  }

  // Pricing and the pivot row consider only these columns.
  bool priceable(int j) const { return stat_[j] != kBasic && sf_.lo[j] != sf_.up[j]; }

  // Loop entry: split each row of a_rows_ into priceable columns and the
  // rest, and read each position's bounds into blo_/bup_. swap_in() (and in
  // phase 1 mark_infeasible()) keeps both up to date within the loop;
  // between loops the basis may be replaced or repaired, and phase 1's
  // bounds give way to the columns'.
  void sync_pivot_state() {
    for (int i = 0; i < m_; ++i) {
      blo_[i] = sf_.lo[basic_[i]];
      bup_[i] = sf_.up[basic_[i]];
    }
    a_rows_.partition([&](int j) { return priceable(j); });
  }

  // The basis change of a pivot: the basic values step along w = B^-1 a_q
  // (x_B -= step w), column q enters at position r with value
  // nonbasic_value(q) + step, and the leaving column goes nonbasic at `out`.
  void swap_in(int q, int r, VarStatus out, double step, const std::vector<double>& w) {
    const double enter_val = nonbasic_value(q) + step;
    for (int i = 0; i < m_; ++i) xb_[i] -= step * w[i];
    const int leaving = basic_[r];
    stat_[leaving] = out;
    basic_[r] = q;
    stat_[q] = kBasic;
    xb_[r] = enter_val;
    a_rows_.exclude(a_, q);
    if (priceable(leaving)) a_rows_.include(a_, leaving);
    blo_[r] = sf_.lo[q];
    bup_[r] = sf_.up[q];
    if (auto* o = detail::pivot_observer()) {
      o->after_pivot({a_, dse_, cost1_, stat_, basic_, sf_.lo, sf_.up, blo_, bup_, a_rows_});
    }
  }

  // rho_ = B^-T e_r: row r of B^-1, whose products a_j . rho_ are the pivot
  // row of the tableau. er_ is all zero between calls.
  void pivot_row(int r, bool timed) {
    obs::ScopedTimer t(met_.t_btran, timed);
    er_[r] = 1.0;
    factor_.btran(er_, rho_);
    er_[r] = 0.0;
  }

  // row_ = the nonzeros alpha_j = a_j . rho_ of the pivot row over the
  // priceable columns other than `skip`, in ascending j, computed row-wise
  // over rho_'s nonzeros (equal bit for bit to column_dot).
  void pivot_row_entries(int skip) {
    row_.clear();
    a_rows_.for_each(rho_, [&](int j, double alpha) {
      if (alpha == 0.0 || j == skip) return;
      row_.emplace_back(j, alpha);
    });
  }

  // ---- prices ----------------------------------------------------------
  //
  // d_ holds the reduced costs d_j = c_j - a_j . y, y = B^-T c_B, of the
  // current basis under the running loop's cost vector, for every nonbasic
  // column pricing can pick (entries of basic and fixed columns are unused).
  // reprice() computes them from scratch; the loops call it on entry and on
  // the first iteration after every refactorization, so each Optimal,
  // Unbounded or dual-unbounded verdict — issued only on a fresh
  // factorization — rests on fresh prices. In between, update_prices()
  // carries them across each basis change along the pivot row.

  // Fresh prices for `cost`. When the prices being replaced were carried
  // for the same cost (priced_at_ >= 0; callers that switch cost vectors
  // reset it to -1), their worst scaled gap to the fresh values is recorded.
  void reprice(const std::vector<double>& cost, bool timed) {
    {
      obs::ScopedTimer t(met_.t_btran, timed);
      for (int i = 0; i < m_; ++i) cb_[i] = cost[basic_[i]];
      factor_.btran(cb_, y_);
    }
    obs::ScopedTimer t(met_.t_pricing, timed);
    const bool carried = priced_at_ >= 0;
    double drift = 0.0;
    for (int j = 0; j < n_; ++j) {
      if (stat_[j] == kBasic || sf_.lo[j] == sf_.up[j]) continue;
      const double d = cost[j] - a_.column_dot(j, y_);
      if (carried) drift = std::max(drift, std::abs(d_[j] - d) / (1.0 + std::abs(d)));
      d_[j] = d;
    }
    if (carried) met_.price_drift.record(drift);
    priced_at_ = refactor_count_;
  }

  // Carry the prices across the pivot that brings column q into position r
  // (pivot element alpha_q = (B^-1 a_q)_r): with theta = d_q / alpha_q,
  // y += theta rho, so d_j -= theta alpha_j for every column with a nonzero
  // pivot-row entry (`row`), d_q becomes 0 and the leaving column ends at
  // -theta. Call before basic_ changes.
  void update_prices(int q, int r, double alpha_q,
                     const std::vector<std::pair<int, double>>& row) {
    const double theta = d_[q] / alpha_q;
    for (const auto& [j, alpha_j] : row) d_[j] -= theta * alpha_j;
    d_[q] = 0.0;
    d_[basic_[r]] = -theta;
  }

  // ---- primal CHUZC candidates ------------------------------------------
  //
  // The primal loop keeps its attractive columns — priceable, with a reduced
  // cost that violates optimality in a direction the column may move — as
  // an unordered list, with each column's slot in it (-1: absent). The list
  // is rebuilt after each reprice(); after each pivot it is updated for the
  // columns whose price or status changed: the pivot row's, the entering and
  // the leaving column, or the one a bound flip moved.

  // The direction (+1 up, -1 down) in which column j improves the
  // objective, or 0 when it is not attractive.
  int entering_dir(int j) const {
    if (!priceable(j)) return 0;
    if (d_[j] < -opt_.opt_tol && stat_[j] != kAtUpper) return 1;
    if (d_[j] > opt_.opt_tol && stat_[j] != kAtLower) return -1;
    return 0;
  }

  void update_attractive(int j) {
    const bool in = entering_dir(j) != 0;
    const int slot = attr_slot_[j];
    if (in == (slot >= 0)) return;
    if (in) {
      attr_slot_[j] = static_cast<int>(attractive_.size());
      attractive_.push_back(j);
      return;
    }
    const int last = attractive_.back();
    attractive_[slot] = last;
    attr_slot_[last] = slot;
    attractive_.pop_back();
    attr_slot_[j] = -1;
  }

  void rebuild_attractive() {
    for (const int j : attractive_) attr_slot_[j] = -1;
    attractive_.clear();
    for (int j = 0; j < n_; ++j) update_attractive(j);
  }

  double nonbasic_value(int j) const {
    switch (stat_[j]) {
      case kAtLower: return sf_.lo[j];
      case kAtUpper: return sf_.up[j];
      default: return 0.0;
    }
  }

  double objective_of(const std::vector<double>& cost) const {
    double obj = 0.0;
    for (int i = 0; i < m_; ++i) obj += cost[basic_[i]] * xb_[i];
    for (int j = 0; j < n_; ++j)
      if (stat_[j] != kBasic) obj += cost[j] * nonbasic_value(j);
    return obj;
  }

  // Sum of the basic bound violations (0 when primal-feasible): phase 1's
  // residual, and a sampled telemetry track; never in the pivot path.
  double primal_infeasibility() const {
    double sum = 0.0;
    for (int i = 0; i < m_; ++i) {
      const int j = basic_[i];
      sum += std::max({sf_.lo[j] - xb_[i], xb_[i] - sf_.up[j], 0.0});
    }
    return sum;
  }

  // The convergence counters both optimize loops sample; lp.iteration and
  // lp.objective also feed the heartbeat's `solver` block.
  void sample_progress(const std::vector<double>& cost) const {
    trace::counter("lp.iteration", static_cast<double>(iters_));
    trace::counter("lp.objective", objective_of(cost));
    trace::counter("lp.primal_infeas", primal_infeasibility());
  }

  // Cadence of one optimize loop's convergence samples: every kSampleEvery
  // iterations while a tracer or heartbeat is listening, never otherwise.
  // Read once per loop, so an unobserved solve pays one compare per
  // iteration.
  struct Sampler {
    const long every = trace::listening() ? kSampleEvery : 0;
    long last = -1;  // the last sampled iteration: reconfirm() re-runs one

    bool due(long iter) {
      if (every == 0 || iter % every != 0 || iter == last) return false;
      last = iter;
      return true;
    }
  };

  // ---- main loop -------------------------------------------------------

  Status optimize(const std::vector<double>& cost, bool phase1) {
    std::vector<double> w;
    int degenerate_streak = 0;
    bool bland_active = false;
    // Kernel timing is hoisted: checked once per optimize() call, not per
    // iteration, so an un-instrumented solve pays nothing for the spans.
    const bool timed = obs::Registry::instance().timing_enabled();
    Sampler sample;
    // DEVEX reference weights (reset per optimize call).
    devex_.assign(n_, 1.0);
    priced_at_ = -1;  // a new cost vector: the first iteration reprices
    sync_pivot_state();
    if (phase1) cost1_.assign(n_, 0.0);

    // Record the final degenerate run when leaving the loop.
    const auto flush_degenerate_run = [&] {
      if (degenerate_streak > 0)
        met_.degenerate_runs.record(static_cast<double>(degenerate_streak));
    };

    for (;;) {
      // Phase 1 (whose `cost` is cost1_) is done once no basic violates a
      // bound.
      if (phase1 && mark_infeasible() == 0) {
        flush_degenerate_run();
        return Status::Optimal;
      }
      if (++iters_ > max_iters_) {
        flush_degenerate_run();
        return Status::IterationLimit;
      }

      // Run-control safepoint (see cancel_safepoint()).
      if (cancel_safepoint()) {
        flush_degenerate_run();
        return Status::Cancelled;
      }

      if (priced_at_ != refactor_count_) {
        reprice(cost, timed);
        obs::ScopedTimer pricing_timer(met_.t_pricing, timed);
        rebuild_attractive();
      }

      // ---- pricing (DEVEX: maximize d^2 / reference weight) ----
      // Over the attractive columns; the largest score wins, ties going to
      // the lowest column index, and Bland's rule takes the lowest index.
      const bool bland = degenerate_streak >= opt_.bland_after;
      if (bland && !bland_active) {
        ++bland_activations_;
        met_.bland_activations.add(1);
      }
      bland_active = bland;
      obs::ScopedTimer pricing_timer(met_.t_pricing, timed);
      int q = -1;
      double best = 0.0;
      if (bland) {
        for (const int j : attractive_)
          if (q < 0 || j < q) q = j;
      } else {
        for (const int j : attractive_) {
          const double score = d_[j] * d_[j] / devex_[j];
          if (score > best || (score == best && j < q)) {
            best = score;
            q = j;
          }
        }
      }
      const int dir = q >= 0 ? entering_dir(q) : 0;
      pricing_timer.stop();

      // ---- convergence telemetry (every kSampleEvery iterations) ----
      if (sample.due(iters_)) {
        sample_progress(cost);
        // Dual infeasibility proxy: the DEVEX winner's reduced-cost
        // violation (score = viol^2 / weight); 0 at optimality or in Bland
        // mode, where no scores are computed.
        trace::counter("lp.dual_infeas",
                       q >= 0 && !bland ? std::sqrt(best * devex_[q]) : 0.0);
      }

      if (q < 0) {
        // Confirm optimality against a freshly factorized basis.
        if (!factor_.fresh()) {
          if (!reconfirm()) return Status::Numerical;
          continue;
        }
        flush_degenerate_run();
        return Status::Optimal;
      }

      // ---- FTRAN ----
      {
        obs::ScopedTimer t(met_.t_ftran, timed);
        factor_.ftran_entering(q, w);
      }

      // ---- ratio test (two-pass Harris) ----
      obs::ScopedTimer ratio_timer(met_.t_ratio_test, timed);
      const double own_range = sf_.up[q] - sf_.lo[q];
      const detail::HarrisStep harris = detail::harris_ratio_test(
          w, dir, xb_, blo_, bup_, basic_, own_range, opt_.feas_tol, bland, harris_rows_);
      if (!std::isfinite(harris.t_limit)) {
        // Never trust an unbounded verdict from a stale basis: refactorize
        // and re-derive the direction once before reporting.
        if (!factor_.fresh()) {
          if (!reconfirm()) return Status::Numerical;
          continue;
        }
        flush_degenerate_run();
        unbounded_col_ = q;
        return phase1 ? Status::Numerical : Status::Unbounded;
      }
      const int leave = harris.leave;
      const double t_step = harris.t_step;
      ratio_timer.stop();

      // Bound flip: no basic blocks (t_step is then own_range), or the
      // entering column's own range binds before the blocker.
      if (leave < 0 || (std::isfinite(own_range) && own_range < t_step)) {
        TCR_ASSERT(std::isfinite(own_range), "flip without finite range");
        for (int i = 0; i < m_; ++i) xb_[i] -= own_range * dir * w[i];
        stat_[q] = (stat_[q] == kAtLower) ? kAtUpper : kAtLower;
        update_attractive(q);
        flush_degenerate_run();
        degenerate_streak = 0;
        met_.bound_flips.add(1);
        continue;
      }

      if (t_step <= 1e-10) {
        ++degenerate_streak;
        ++degenerate_total_;
        met_.degenerate_pivots.add(1);
      } else {
        flush_degenerate_run();
        degenerate_streak = 0;
      }

      // ---- pivot row: carried prices and DEVEX weights (Forrest-Goldfarb) ----
      // One BTRAN plus a pass over the matrix for alpha = e_r' B^-1 N, which
      // carries the reduced costs to the new basis and, outside Bland mode,
      // updates the reference weights.
      {
        const double alpha_q = w[leave];
        const double devex_q = std::max(devex_[q], 1.0);
        pivot_row(leave, timed);
        obs::ScopedTimer devex_timer(met_.t_pricing, timed);
        const double scale = devex_q / (alpha_q * alpha_q);
        pivot_row_entries(q);
        if (!bland) {
          for (const auto& [j, alpha_j] : row_) {
            const double cand = alpha_j * alpha_j * scale;
            if (cand > devex_[j]) devex_[j] = cand;
          }
        }
        update_prices(q, leave, alpha_q, row_);
        if (!bland) {
          devex_[basic_[leave]] = std::max(scale, 1.0);
          if (devex_q > 1e7) devex_.assign(n_, 1.0);  // reset a stale framework
        }
        for (const auto& [j, alpha_j] : row_) update_attractive(j);
      }

      // ---- update ----
      // The leaving basic lands on the bound its position blocked at: in
      // phase 1, a marked one on the bound it violated.
      const int leaving = basic_[leave];
      const VarStatus out = dir * w[leave] > 0
                                ? (blo_[leave] == sf_.lo[leaving] ? kAtLower : kAtUpper)
                                : (bup_[leave] == sf_.up[leaving] ? kAtUpper : kAtLower);
      swap_in(q, leave, out, t_step * dir, w);
      if (phase1) {  // its phase-1 cost drops to 0, and so its price
        d_[leaving] -= cost1_[leaving];
        cost1_[leaving] = 0.0;
      }
      update_attractive(q);
      update_attractive(leaving);
      if (!factor_.replace(leave, w[leave]) && !refactorize()) return Status::Numerical;
    }
  }

  // Phase 1's costs, by Wolfe's composite rule: +1 on a basic above its
  // upper bound, -1 on one below its lower bound, 0 on every other column.
  // A marked position may move only back toward the bound it violates, so
  // the ratio test sees [up, inf) or (-inf, lo] there. A still-basic
  // position whose mark changes voids the carried prices. Returns the number
  // of marked positions.
  int mark_infeasible() {
    int marked = 0;
    for (int i = 0; i < m_; ++i) {
      const int j = basic_[i];
      const double c = xb_[i] > sf_.up[j] + opt_.feas_tol   ? 1.0
                       : xb_[i] < sf_.lo[j] - opt_.feas_tol ? -1.0
                                                            : 0.0;
      if (c != 0.0) ++marked;
      if (c == cost1_[j]) continue;
      cost1_[j] = c;
      blo_[i] = c > 0.0 ? sf_.up[j] : c < 0.0 ? -kInf : sf_.lo[j];
      bup_[i] = c > 0.0 ? kInf : c < 0.0 ? sf_.lo[j] : sf_.up[j];
      priced_at_ = -1;
    }
    return marked;
  }

  // ---- dual simplex phase ---------------------------------------------
  //
  // Re-optimizes a dual-feasible basis whose point is primal-infeasible —
  // the parametric-sweep case, where one rhs edit moved the basic values but
  // left every reduced cost intact. Per iteration: price the most violated
  // basic out (dual steepest edge: violation^2 / ||B^-T e_i||^2), btran its
  // unit vector for the pivot row, run the bound-flipping dual ratio test
  // over the nonbasic columns, flip the boxed columns the dual step walks
  // through (batched into one ftran), and pivot the blocking column in,
  // sharing the LU update and refactorization triggers with the primal
  // loop. Returns:
  //   Optimal        — no basic violates its bound (primal feasible, so the
  //                    still-dual-feasible basis is optimal to tolerance);
  //   Unbounded      — some violated row admits no entering column even
  //                    after flipping everything: the dual is unbounded,
  //                    i.e. the primal is infeasible (caller falls back to
  //                    the primal ladder for the authoritative verdict);
  //   Numerical      — factorization alarm or pivot stall (caller falls
  //                    back);
  //   IterationLimit / Cancelled — shared run-control limits (final).
  Status optimize_dual(const std::vector<double>& cost) {
    std::vector<double> w, flip_sum;
    int degenerate_streak = 0;
    const bool timed = obs::Registry::instance().timing_enabled();
    Sampler sample;
    // The weights adopted with the warm basis, else all unknown.
    dse_.resize(static_cast<std::size_t>(m_), 0.0);
    // Stall guard: a dual phase that has not reached primal feasibility
    // after this many pivots is not the cheap sweep repair it exists for;
    // hand the basis back to the primal ladder instead of grinding on.
    const long stall_cap = 4L * m_ + 1000;
    const long first_iter = iters_;
    priced_at_ = -1;  // a new cost vector: the first iteration reprices

    sync_pivot_state();

    // Dual ratio-test candidates: signed pivot-row coefficient abar =
    // s * (a_j . rho) and ratio d_j / abar (>= 0 up to tolerance when the
    // basis is dual-feasible).
    std::vector<BfrtCand> cands;

    // Record the current degenerate run, as the primal loop does, when a
    // non-degenerate pivot ends it and when leaving the loop.
    const auto flush_degenerate_run = [&] {
      if (degenerate_streak > 0)
        met_.degenerate_runs.record(static_cast<double>(degenerate_streak));
      degenerate_streak = 0;
    };
    const auto leave_with = [&](Status st) {
      flush_degenerate_run();
      return st;
    };

    for (;;) {
      if (++iters_ > max_iters_) return leave_with(Status::IterationLimit);
      if (cancel_safepoint()) return leave_with(Status::Cancelled);
      if (iters_ - first_iter > stall_cap) return leave_with(Status::Numerical);
      if (sample.due(iters_)) sample_progress(cost);

      if (priced_at_ != refactor_count_) reprice(cost, timed);

      // ---- leaving-row pricing (dual steepest edge) ----
      // The largest viol^2 / w_i; a row's weight is computed exactly the
      // first time the row is a candidate (see dual_weight()).
      const bool bland = degenerate_streak >= opt_.bland_after;
      obs::ScopedTimer pricing_timer(met_.t_pricing, timed);
      int leave = -1;
      bool below = false;  // which bound the leaving basic violates
      double best_score = 0.0;
      for (int i = 0; i < m_; ++i) {
        // An infinite bound is never violated: x < -inf - tol and
        // x > inf + tol are both false.
        double viol;
        bool b;
        if (xb_[i] < blo_[i] - opt_.feas_tol) {
          viol = blo_[i] - xb_[i];
          b = true;
        } else if (xb_[i] > bup_[i] + opt_.feas_tol) {
          viol = xb_[i] - bup_[i];
          b = false;
        } else {
          continue;
        }
        if (bland) {  // anti-cycling: smallest violated position
          leave = i;
          below = b;
          break;
        }
        const double score = viol * viol / dual_weight(i);
        if (score > best_score) {
          best_score = score;
          leave = i;
          below = b;
        }
      }
      pricing_timer.stop();

      if (leave < 0) {
        // Primal feasible. Confirm against a freshly factorized basis, as
        // the primal loop does before declaring optimality.
        if (!factor_.fresh()) {
          if (!reconfirm()) return leave_with(Status::Numerical);
          continue;
        }
        return leave_with(Status::Optimal);
      }

      pivot_row(leave, timed);

      // ---- bound-flipping dual ratio test ----
      // s = +1 when the leaving basic sits above its upper bound, -1 when
      // below its lower bound. Candidates keep dual feasibility along the
      // step: at-lower columns with abar > 0, at-upper with abar < 0, free
      // columns with either sign. Walking candidates by increasing ratio, a
      // boxed candidate whose full range absorbs less than the remaining
      // primal violation is bound-flipped and the step pushes past it; the
      // first candidate that covers the rest enters the basis.
      obs::ScopedTimer ratio_timer(met_.t_ratio_test, timed);
      const int lj = basic_[leave];
      const double s = below ? -1.0 : 1.0;
      double remain = below ? sf_.lo[lj] - xb_[leave] : xb_[leave] - sf_.up[lj];
      pivot_row_entries(-1);
      cands.clear();
      for (const auto& [j, alpha] : row_) {
        const double abar = s * alpha;
        if (std::abs(abar) <= 1e-9) continue;
        if (stat_[j] == kAtLower ? abar <= 0.0
            : stat_[j] == kAtUpper ? abar >= 0.0
                                   : false) {
          continue;
        }
        cands.push_back({j, d_[j] / abar, abar, sf_.up[j] - sf_.lo[j]});
      }
      const int enter_idx = detail::bfrt_select(cands, remain, opt_.feas_tol);
      ratio_timer.stop();

      if (enter_idx < 0) {
        // No entering column covers the violation (possibly after flipping
        // every boxed candidate): the dual is unbounded, the primal
        // infeasible. Trust the verdict only from a fresh factorization.
        if (!factor_.fresh()) {
          if (!reconfirm()) return leave_with(Status::Numerical);
          continue;
        }
        return leave_with(Status::Unbounded);
      }

      // ---- apply the bound flips (batched into one ftran) ----
      if (enter_idx > 0) {
        flip_sum.assign(static_cast<std::size_t>(m_), 0.0);
        for (int c = 0; c < enter_idx; ++c) {
          const int fj = cands[c].col;
          const double delta = stat_[fj] == kAtLower ? cands[c].range : -cands[c].range;
          stat_[fj] = stat_[fj] == kAtLower ? kAtUpper : kAtLower;
          a_.add_column_to(fj, delta, flip_sum);
        }
        {
          obs::ScopedTimer t(met_.t_ftran, timed);
          factor_.ftran(flip_sum, w);
        }
        for (int i = 0; i < m_; ++i) xb_[i] -= w[i];
      }

      const BfrtCand& ec = cands[enter_idx];
      const int q = ec.col;

      // ---- FTRAN of the entering column ----
      {
        obs::ScopedTimer t(met_.t_ftran, timed);
        factor_.ftran_entering(q, w);
      }
      const double piv = w[leave];
      if (std::abs(piv) < 1e-9 ||
          std::abs(piv - ec.abar * s) > 1e-6 * (1.0 + std::abs(piv))) {
        // The btran row and ftran column disagree on the pivot: the updated
        // factors have drifted. Refactorize and redo the iteration (committed
        // bound flips stand; the next round reprices from fresh values).
        if (!reconfirm()) return leave_with(Status::Numerical);
        continue;
      }

      if (std::abs(ec.ratio) <= 1e-10) {
        ++degenerate_streak;
        ++degenerate_total_;
        met_.degenerate_pivots.add(1);
      } else {
        flush_degenerate_run();
      }

      // ---- dual steepest-edge weights: tau = B^-1 rho, then the update ----
      {
        obs::ScopedTimer t(met_.t_ftran, timed);
        factor_.ftran(rho_, tau_);  // leaves the entering column's spike alone
      }
      {
        obs::ScopedTimer t(met_.t_pricing, timed);
        detail::dse_update(dse_, w, rho_, tau_, leave);
      }

      update_prices(q, leave, piv, row_);

      // ---- primal update: leaving basic lands on its violated bound ----
      const double target = below ? sf_.lo[lj] : sf_.up[lj];
      swap_in(q, leave, below ? kAtLower : kAtUpper, (xb_[leave] - target) / piv, w);
      if (!factor_.replace(leave, piv) && !refactorize()) return leave_with(Status::Numerical);
    }
  }

  // The dual steepest-edge weight ||B^-T e_i||^2 of position i: one BTRAN,
  // timed as pricing, the first time it is needed; dse_update() carries it
  // from then on.
  double dual_weight(int i) {
    if (dse_[i] == 0.0) {
      pivot_row(i, /*timed=*/false);
      double norm2 = 0.0;
      for (const double v : rho_) norm2 += v * v;
      dse_[i] = norm2;
    }
    return dse_[i];
  }

  void extract(Solution& sol) {
    // One clean refactorization for final values.
    refactorize();
    std::vector<double> x(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j)
      if (stat_[j] != kBasic) x[j] = nonbasic_value(j);
    for (int i = 0; i < m_; ++i) x[basic_[i]] = xb_[i];

    const double sign = sf_.maximize ? -1.0 : 1.0;
    sol.x.assign(x.begin(), x.begin() + sf_.nstruct);
    double obj = 0.0;
    for (int j = 0; j < n_; ++j) obj += sf_.cost[j] * x[j];
    sol.objective = sign * obj;

    for (int i = 0; i < m_; ++i) cb_[i] = sf_.cost[basic_[i]];
    factor_.btran(cb_, y_);
    sol.duals.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) sol.duals[i] = sign * y_[i];
    sol.reduced.resize(static_cast<std::size_t>(sf_.nstruct));
    for (int j = 0; j < sf_.nstruct; ++j) {
      sol.reduced[j] = sign * (sf_.cost[j] - a_.column_dot(j, y_));
    }

    if (auto* h = fault::simplex_hooks()) {
      if (h->solution_corruption != 0.0 && !sol.x.empty() &&
          fault::SimplexHooks::consume(h->corrupt_solutions)) {
        h->corruptions_injected.fetch_add(1, std::memory_order_relaxed);
        sol.x[0] += h->solution_corruption;
      }
    }
  }

  StandardForm sf_;
  SimplexOptions opt_;
  const Basis* start_ = nullptr;
  int m_, n_;
  SparseMatrix a_;
  BasisFactor factor_;  // LU of the basis columns of a_, and when to rebuild it
  RowProduct a_rows_;   // a_ row-wise, for pivot rows
  Rng rng_;
  long max_iters_ = 0;
  long iters_ = 0;
  long charged_iters_ = 0;  // iterations already charged to the cancel token

  SimplexMetrics& met_ = SimplexMetrics::get();
  long degenerate_total_ = 0;
  int bland_activations_ = 0;
  int refactor_count_ = 0;
  int unbounded_col_ = -1;
  double phase1_residual_ = 0.0;
  const char* warm_outcome_ = "cold";

  std::vector<VarStatus> stat_;
  std::vector<int> basic_;
  std::vector<double> xb_;
  std::vector<double> devex_;
  std::vector<double> dse_;  // dual steepest-edge weights (optimize_dual)
  std::vector<double> cost1_;  // phase-1 costs (see mark_infeasible()); empty outside it
  std::vector<double> d_;    // reduced costs (see reprice())
  int priced_at_ = -1;       // refactor_count_ at the last reprice(); -1: none
  // Per-solve scratch, sized once so FTRAN/BTRAN allocate nothing per pivot.
  std::vector<double> cb_, y_, er_, rho_, tau_;
  std::vector<std::pair<int, double>> row_;  // nonzeros (j, alpha_j) of the pivot row
  std::vector<double> blo_, bup_;  // bounds of basic_[i] (see sync_pivot_state())
  std::vector<int> harris_rows_;   // work buffer of the primal ratio test
  std::vector<int> attractive_;    // primal CHUZC candidates (see entering_dir())
  std::vector<int> attr_slot_;     // each column's slot in attractive_, or -1
};

}  // namespace

Solution solve(const Model& model, const SimplexOptions& options, const Basis* start) {
  TCR_REQUIRE(model.num_cols() > 0, "model has no variables");

  const CertifyOptions cert_opts = CertifyOptions::from_solver_tols(
      options.feas_tol, options.opt_tol, kCertifyTolFactor);

  auto run_attempt = [](const Model& mdl, const SimplexOptions& o, const Basis* b) {
    auto sf = detail::build_standard_form(mdl);
    RevisedSimplex simplex(std::move(sf), o, b);
    return simplex.run();
  };

  // An attempt is accepted unless it broke down numerically or produced an
  // "optimal" point whose independent certificate fails. Infeasible,
  // Unbounded and IterationLimit verdicts stand: re-solving cannot change
  // what the model is, only how it was pivoted.
  auto accept = [&](Solution& sol) {
    if (sol.status == Status::Numerical) return false;
    if (sol.status != Status::Optimal) return true;
    if (!options.certify) return true;
    sol.certificate = certify(model, sol, cert_opts);
    return sol.certificate.pass;
  };

  auto describe = [](const Solution& sol) {
    if (sol.status == Status::Optimal) {
      return sol.certificate.checked ? sol.certificate.summary()
                                     : std::string("optimal (uncertified)");
    }
    std::string d = to_string(sol.status);
    if (!sol.note.empty()) d += " (" + sol.note + ")";
    return d;
  };

  Solution best = run_attempt(model, options, start);
  if (accept(best)) return best;

  // ---- staged recovery ladder ----
  auto& rec = RecoveryMetrics::get();
  std::string history = "first attempt: " + describe(best);

  // Each sparse retry restarts from the previous attempt's exported basis:
  // even a failed attempt usually leaves the basis far closer to optimal
  // than the first start, and apply_warm() repairs or rejects anything
  // unusable. The dense stage stays cold — its value is independence.
  Basis chain = best.basis;

  // Keep the most defensible attempt for the exhausted case: an optimal
  // point with a failing certificate beats a breakdown, and among failed
  // certificates the smaller worst-residual wins.
  auto keep_better = [&](Solution& cand) {
    const bool cand_opt = cand.status == Status::Optimal;
    const bool best_opt = best.status == Status::Optimal;
    bool take = false;
    if (cand_opt != best_opt) {
      take = cand_opt;
    } else if (cand_opt) {
      take = &worse_certificate(cand.certificate, best.certificate) == &best.certificate;
    }
    if (take) std::swap(best, cand);
  };

  enum StageId { kReseed = 0, kCareful, kDense, kNumStages };
  obs::Counter* rescued[kNumStages] = {&rec.rescued_reseed, &rec.rescued_careful,
                                       &rec.rescued_dense};
  const char* names[kNumStages] = {"reseed", "careful", "dense"};

  for (int stage = 0; stage < kNumStages; ++stage) {
    const std::string stage_span_name = std::string("lp.recovery.") + names[stage];
    trace::Span stage_span(stage_span_name);
    Solution cand;
    switch (stage) {
      case kReseed: {
        // Different perturbation seed and the opposite perturbation setting
        // shift the pivot sequence enough to escape most bad bases.
        SimplexOptions o = options;
        o.seed = options.seed * 2654435761ULL + 17;
        o.perturb = !options.perturb;
        cand = run_attempt(model, o, &chain);
        break;
      }
      case kCareful: {
        // Slow but stable: refactorize constantly, drop the perturbation,
        // and fall into Bland pricing almost immediately.
        SimplexOptions o = options;
        o.refactor_every = std::min(options.refactor_every, 8);
        o.bland_after = 1;
        o.perturb = false;
        o.seed = options.seed * 6364136223846793005ULL + 1442695040888963407ULL;
        cand = run_attempt(model, o, &chain);
        break;
      }
      case kDense: {
        // Last resort for small models: the dense reference simplex shares
        // no code with the revised solver (explicit inverse, Bland's rule).
        if (model.num_rows() + model.num_cols() > kDenseFallbackMaxDim) {
          history += "; dense: skipped (model too large)";
          continue;
        }
        cand = solve_dense(model);
        break;
      }
    }
    rec.attempts.add(1);
    const bool rescued_here = accept(cand);
    stage_span.attr("status", to_string(cand.status));
    stage_span.attr("rescued", rescued_here);
    stage_span.end();
    if (rescued_here) {
      rescued[stage]->add(1);
      return cand;
    }
    history += std::string("; ") + names[stage] + ": " + describe(cand);
    chain = cand.basis;
    keep_better(cand);
  }

  rec.exhausted.add(1);
  best.note = "recovery ladder exhausted: " + history;
  return best;
}

}  // namespace tcr::lp
