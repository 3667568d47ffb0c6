#include "tcr/core/tradeoff.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "tcr/guard/journal.hpp"
#include "tcr/routing/interpolate.hpp"
#include "tcr/telemetry/telemetry.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/util/check.hpp"

namespace tcr {

namespace {

// ---- checkpoint codec helpers ------------------------------------------
// Fixed-width little-endian-as-memcpy encoding; journals are machine-local
// (see SweepCheckpoint docs), so native byte order is part of the format.

void put_u32(std::string& s, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  s.append(b, 4);
}

void put_i64(std::string& s, std::int64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  s.append(b, 8);
}

void put_double(std::string& s, double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  s.append(b, 8);
}

void put_string(std::string& s, const std::string& v) {
  put_u32(s, static_cast<std::uint32_t>(v.size()));
  s += v;
}

// Cursor with bounds-checked reads; any overrun poisons the cursor.
struct Cursor {
  const char* p;
  std::size_t left;
  bool ok = true;

  bool take(void* out, std::size_t n) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    std::memcpy(out, p, n);
    p += n;
    left -= n;
    return true;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    take(&v, 4);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    take(&v, 8);
    return v;
  }
  double f64() {
    double v = 0;
    take(&v, 8);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || left < n) {
      ok = false;
      return {};
    }
    std::string v(p, n);
    p += n;
    left -= n;
    return v;
  }
};

// Version 2 added the basis's dual steepest-edge weights.
constexpr std::uint32_t kCheckpointVersion = 2;

std::vector<TradeoffPoint> sweep(const Torus& torus, DesignObjective objective,
                                 const std::vector<std::vector<int>>& samples,
                                 const std::vector<double>& localities,
                                 const lp::SimplexOptions& opts, ThreadPool* pool,
                                 const SweepConfig& sweep_cfg) {
  const double hmin = torus.mean_min_distance();
  const double ideal = torus.ideal_uniform_load();
  std::vector<TradeoffPoint> out(localities.size());
  const int n = static_cast<int>(localities.size());
  if (n == 0) return out;

  const bool on_pool = pool != nullptr && pool->size() > 1;
  int chains = sweep_cfg.chains;
  if (chains <= 0) chains = on_pool ? static_cast<int>(pool->size()) : 1;
  chains = std::min(chains, n);

  // The sweep span is created on the calling thread; chains run on pool
  // workers, so each chain span parents to it explicitly — the explicit link
  // covers the serial and pooled execution paths identically (ThreadPool::
  // submit also hands the ambient context over for everything else spawned
  // inside a chain).
  trace::Span sweep_span("sweep");
  sweep_span.attr("points", n);
  sweep_span.attr("chains", chains);
  sweep_span.attr("warm_start", sweep_cfg.warm_start);
  const trace::SpanContext sweep_ctx = sweep_span.context();

  // Sweep progress tracks (heartbeat `progress`). Counters only read sweep
  // state, so --heartbeat cannot change the point series. A point counts
  // exactly when the checkpoint journal gets its record (resumed points
  // included), so a reader can equate sweep.done with the journal record
  // count; the lock makes the last sample written the final count even
  // when chains finish points concurrently.
  trace::counter("sweep.total", n);
  trace::counter("sweep.done", 0);
  trace::counter("sweep.warm_adopted", 0);
  std::mutex progress_mu;
  int done = 0, warm_adopted = 0;
  const auto point_done = [&](const std::string& warm_start) {
    {
      std::lock_guard<std::mutex> lock(progress_mu);
      ++done;
      if (warm_start == "accepted" || warm_start == "repaired") ++warm_adopted;
      trace::counter("sweep.done", done);
      trace::counter("sweep.warm_adopted", warm_adopted);
    }
    telemetry::poll();
  };

  // One chain = one contiguous block of points sharing a single design
  // model: the constraint matrix is built once, only the locality bound
  // moves between points, and each point's basis warm-starts the next.
  auto run_chain = [&](int begin, int end) {
    trace::Span chain_span("sweep.chain", sweep_ctx);
    chain_span.attr("begin", begin);
    chain_span.attr("end", end);
    SymmetricDesignConfig cfg;
    cfg.objective = objective;
    cfg.samples = samples;
    cfg.locality_equals = localities[begin] * hmin;
    cfg.locality_le = true;  // Pareto frontier: best throughput with at most L
    SymmetricArcDesign design(torus, cfg);
    lp::Basis warm;
    for (int i = begin; i < end; ++i) {
      out[i].locality = localities[i];

      // Replay a checkpointed point: the journaled result verbatim, the
      // journaled basis into the warm chain — the next solved point sees
      // exactly the basis it would have seen in the uninterrupted run.
      if (sweep_cfg.resume != nullptr) {
        auto it = sweep_cfg.resume->points.find(i);
        if (it != sweep_cfg.resume->points.end()) {
          out[i] = it->second.first;
          out[i].provenance = "resumed";
          if (sweep_cfg.warm_start) warm = it->second.second;
          point_done(out[i].warm_start);
          continue;
        }
      }

      // A fired token stops the chain, but every remaining point is still
      // visited and labeled so reports and journals stay complete.
      if (sweep_cfg.cancel != nullptr && sweep_cfg.cancel->check()) {
        out[i].status = lp::Status::Cancelled;
        out[i].note = "not attempted: " + sweep_cfg.cancel->note();
        continue;
      }

      trace::Span point_span("sweep.point");
      if (i > begin) design.set_locality_bound(localities[i] * hmin);
      DesignResult res = design.solve(
          opts, sweep_cfg.warm_start && !warm.empty() ? &warm : nullptr);
      out[i].status = res.status;
      out[i].note = res.note;
      out[i].certificate = res.certificate;
      out[i].warm_start = res.warm_start;
      out[i].iterations = res.iterations;
      if (res.status == lp::Status::Optimal && res.objective > 0.0) {
        out[i].capacity_fraction = ideal / res.objective;
      }
      // Journal terminal outcomes only: a cancelled solve is not a result —
      // the resumed run must recompute it from the same warm basis.
      if (sweep_cfg.journal != nullptr && res.status != lp::Status::Cancelled) {
        sweep_cfg.journal->append(SweepCheckpoint::encode(i, out[i], res.basis));
      }
      if (res.status != lp::Status::Cancelled) point_done(res.warm_start);
      point_span.attr("index", i);
      point_span.attr("locality", localities[i]);
      point_span.attr("status", lp::to_string(res.status));
      point_span.attr("warm_start", res.warm_start);
      point_span.attr("capacity_fraction", out[i].capacity_fraction);
      point_span.attr("iterations", static_cast<std::int64_t>(res.iterations));
      point_span.attr("dual_iterations", static_cast<std::int64_t>(res.dual_iterations));
      if (sweep_cfg.warm_start) warm = std::move(res.basis);
    }
  };

  // Parallel and serial execution walk the exact same (n, chains) partition,
  // so the resulting point series is identical either way.
  if (on_pool && chains > 1) {
    ThreadPool::parallel_for_blocks(*pool, n, chains, run_chain);
  } else {
    for (int b = 0; b < chains; ++b) {
      const auto [begin, end] = ThreadPool::block_range(n, chains, b);
      run_chain(begin, end);
    }
  }
  fill_degraded_points(out, sweep_cfg.cancel != nullptr ? sweep_cfg.cancel->reason()
                                                        : guard::StopReason::None);
  return out;
}

}  // namespace

// ---- checkpoint codec ---------------------------------------------------

std::string SweepCheckpoint::encode(int index, const TradeoffPoint& pt,
                                    const lp::Basis& basis) {
  std::string s;
  put_u32(s, kCheckpointVersion);
  put_u32(s, static_cast<std::uint32_t>(index));
  put_double(s, pt.locality);
  put_double(s, pt.capacity_fraction);
  put_u32(s, static_cast<std::uint32_t>(pt.status));
  put_string(s, pt.note);
  put_string(s, pt.warm_start);
  put_string(s, pt.provenance);
  put_i64(s, pt.iterations);
  const lp::Certificate& c = pt.certificate;
  s.push_back(c.checked ? 1 : 0);
  s.push_back(c.pass ? 1 : 0);
  put_double(s, c.primal_residual);
  put_double(s, c.bound_violation);
  put_double(s, c.objective_residual);
  put_double(s, c.dual_residual);
  put_double(s, c.dual_violation);
  put_double(s, c.row_dual_violation);
  put_double(s, c.complementarity);
  put_double(s, c.duality_gap);
  put_string(s, c.reason);
  put_u32(s, static_cast<std::uint32_t>(basis.stat.size()));
  s.append(reinterpret_cast<const char*>(basis.stat.data()), basis.stat.size());
  put_u32(s, static_cast<std::uint32_t>(basis.basic.size()));
  s.append(reinterpret_cast<const char*>(basis.basic.data()),
           basis.basic.size() * sizeof(int));
  put_u32(s, static_cast<std::uint32_t>(basis.weights.size()));
  for (const double v : basis.weights) put_double(s, v);
  return s;
}

bool SweepCheckpoint::decode(const std::string& payload, int* index, TradeoffPoint* pt,
                             lp::Basis* basis) {
  Cursor c{payload.data(), payload.size()};
  if (c.u32() != kCheckpointVersion) return false;
  *pt = TradeoffPoint{};
  *basis = lp::Basis{};
  *index = static_cast<int>(c.u32());
  pt->locality = c.f64();
  pt->capacity_fraction = c.f64();
  const std::uint32_t status = c.u32();
  if (!c.ok || status > static_cast<std::uint32_t>(lp::Status::Cancelled)) return false;
  pt->status = static_cast<lp::Status>(status);
  pt->note = c.str();
  pt->warm_start = c.str();
  pt->provenance = c.str();
  pt->iterations = static_cast<long>(c.i64());
  char flag = 0;
  c.take(&flag, 1);
  pt->certificate.checked = flag != 0;
  c.take(&flag, 1);
  pt->certificate.pass = flag != 0;
  pt->certificate.primal_residual = c.f64();
  pt->certificate.bound_violation = c.f64();
  pt->certificate.objective_residual = c.f64();
  pt->certificate.dual_residual = c.f64();
  pt->certificate.dual_violation = c.f64();
  pt->certificate.row_dual_violation = c.f64();
  pt->certificate.complementarity = c.f64();
  pt->certificate.duality_gap = c.f64();
  pt->certificate.reason = c.str();
  const std::uint32_t nstat = c.u32();
  if (!c.ok || c.left < nstat) return false;
  basis->stat.assign(reinterpret_cast<const std::uint8_t*>(c.p),
                     reinterpret_cast<const std::uint8_t*>(c.p) + nstat);
  c.p += nstat;
  c.left -= nstat;
  const std::uint32_t nbasic = c.u32();
  if (!c.ok || c.left < std::size_t{nbasic} * sizeof(int)) return false;
  basis->basic.resize(nbasic);
  for (int& b : basis->basic) c.take(&b, sizeof b);
  const std::uint32_t nweights = c.u32();
  if (!c.ok || c.left != std::size_t{nweights} * sizeof(double)) return false;
  basis->weights.resize(nweights);
  for (double& v : basis->weights) v = c.f64();
  return c.ok;
}

bool load_sweep_resume(const std::string& path, SweepResume* out, bool* truncated_tail,
                       std::string* error) {
  guard::JournalContents contents = guard::read_journal(path);
  if (truncated_tail != nullptr) *truncated_tail = contents.truncated_tail;
  if (!contents.ok) {
    if (error != nullptr) *error = contents.error;
    return false;
  }
  out->points.clear();
  for (std::size_t r = 0; r < contents.records.size(); ++r) {
    int index = -1;
    TradeoffPoint pt;
    lp::Basis basis;
    if (!SweepCheckpoint::decode(contents.records[r], &index, &pt, &basis) || index < 0) {
      if (error != nullptr) {
        *error = "journal '" + path + "': record " + std::to_string(r) +
                 " is not a sweep checkpoint";
      }
      return false;
    }
    // Later records win: a resumed-then-killed run may have re-journaled a
    // point; the freshest result is the one its successor chained from.
    out->points[index] = {std::move(pt), std::move(basis)};
  }
  return true;
}

// ---- degradation post-pass (§5.3) ---------------------------------------

void fill_degraded_points(std::vector<TradeoffPoint>& points, guard::StopReason reason) {
  const bool budget_stop = reason == guard::StopReason::Deadline ||
                           reason == guard::StopReason::Iterations ||
                           reason == guard::StopReason::Memory;
  // Anchor points the interpolation may lean on: certified optima (or plain
  // optima when the run did not certify).
  const auto certified = [](const TradeoffPoint& p) {
    return p.solved() && std::isfinite(p.capacity_fraction) &&
           (!p.certificate.checked || p.certificate.pass);
  };

  for (std::size_t i = 0; i < points.size(); ++i) {
    TradeoffPoint& p = points[i];
    if (p.status == lp::Status::Cancelled) {
      p.provenance = budget_stop ? "degraded" : "skipped";
    } else if (p.status == lp::Status::Numerical) {
      // Recovery ladder exhausted: no defensible measurement either.
      p.provenance = "degraded";
    }
    if (!p.degraded()) continue;

    // Nearest certified neighbors on each side of the locality grid.
    int lo = -1, hi = -1;
    for (int j = static_cast<int>(i) - 1; j >= 0; --j) {
      if (certified(points[static_cast<std::size_t>(j)])) { lo = j; break; }
    }
    for (int j = static_cast<int>(i) + 1; j < static_cast<int>(points.size()); ++j) {
      if (certified(points[static_cast<std::size_t>(j)])) { hi = j; break; }
    }
    if (lo < 0 || hi < 0) {
      if (!p.note.empty()) p.note += "; ";
      p.note += "degraded: no certified neighbors on both sides to interpolate";
      continue;
    }
    const TradeoffPoint& a = points[static_cast<std::size_t>(lo)];
    const TradeoffPoint& b = points[static_cast<std::size_t>(hi)];
    // Time-share the two neighbor designs so the blend's H_avg (linear,
    // eq. 12) lands on this point's locality; its throughput is the
    // harmonic-mean bound of eq. 14.
    const double alpha = (b.locality - p.locality) / (b.locality - a.locality);
    p.capacity_fraction =
        interpolation_throughput_bound(a.capacity_fraction, b.capacity_fraction, alpha);
    if (!p.note.empty()) p.note += "; ";
    p.note += "capacity interpolated (eq. 14) from points " + std::to_string(lo) +
              " and " + std::to_string(hi);
  }
}

std::vector<TradeoffPoint> worst_case_tradeoff(const Torus& torus,
                                               const std::vector<double>& localities,
                                               const lp::SimplexOptions& opts,
                                               ThreadPool* pool, const SweepConfig& sweep_cfg) {
  return sweep(torus, DesignObjective::WorstCase, {}, localities, opts, pool, sweep_cfg);
}

std::vector<TradeoffPoint> average_case_tradeoff(const Torus& torus,
                                                 const std::vector<std::vector<int>>& samples,
                                                 const std::vector<double>& localities,
                                                 const lp::SimplexOptions& opts,
                                                 ThreadPool* pool,
                                                 const SweepConfig& sweep_cfg) {
  return sweep(torus, DesignObjective::AverageCase, samples, localities, opts, pool, sweep_cfg);
}

std::vector<double> locality_grid(double lo, double hi, int n) {
  TCR_REQUIRE(n >= 2 && lo <= hi, "grid needs n >= 2 and lo <= hi");
  std::vector<double> g(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) g[i] = lo + (hi - lo) * i / (n - 1);
  return g;
}

}  // namespace tcr
