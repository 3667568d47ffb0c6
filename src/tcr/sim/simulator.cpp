#include "tcr/sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <future>
#include <limits>
#include <string>

#include "tcr/fault/fault.hpp"
#include "tcr/telemetry/telemetry.hpp"
#include "tcr/util/check.hpp"
#include "tcr/util/epoch_barrier.hpp"
#include "tcr/util/thread_pool.hpp"

namespace tcr {

namespace {

// Process-wide simulator metrics; resolved once, references live forever.
struct SimMetrics {
  obs::Counter& runs;
  obs::Counter& deadlocks;
  obs::Counter& near_misses;
  obs::Counter& link_fault_cycles;
  obs::Counter& credit_stall_skips;
  obs::Histogram& latency;
  obs::Histogram& injection_rate;
  obs::Histogram& accepted_rate;

  static SimMetrics& get() {
    static SimMetrics m;
    return m;
  }

 private:
  SimMetrics()
      : runs(obs::Registry::instance().counter("sim.runs")),
        deadlocks(obs::Registry::instance().counter("sim.deadlocks")),
        near_misses(obs::Registry::instance().counter("sim.deadlock_near_miss")),
        link_fault_cycles(obs::Registry::instance().counter("sim.fault.link_down_cycles")),
        credit_stall_skips(obs::Registry::instance().counter("sim.fault.credit_stalls")),
        latency(obs::Registry::instance().histogram("sim.packet_latency", 1.0, 1.2)),
        injection_rate(obs::Registry::instance().histogram("sim.injection_rate", 1e-3, 1.1)),
        accepted_rate(obs::Registry::instance().histogram("sim.accepted_rate", 1e-3, 1.1)) {}
};

}  // namespace

Simulator::Simulator(const TorusRouting& routing, TrafficGen& gen, const SimConfig& config)
    : torus_(routing.torus()), gen_(gen), cfg_(config) {
  TCR_REQUIRE(cfg_.vcs >= 1 && cfg_.buffer_depth >= 1, "need at least one VC and one slot");
  TCR_REQUIRE(cfg_.stats_window >= 1, "stats window must be positive");
  TCR_REQUIRE(cfg_.threads >= 1, "need at least one simulation thread");
  TCR_REQUIRE(cfg_.shards >= 0, "shard count must be non-negative");
  // Source-queue records store their queue-entry cycle in 32 bits.
  TCR_REQUIRE(static_cast<std::int64_t>(cfg_.warmup_cycles) + cfg_.measure_cycles +
                      cfg_.drain_cycles <
                  (std::int64_t{1} << 32),
              "warmup + measure + drain cycles must fit in 32 bits");
  occupancy_.reserve(cfg_.vcs);
  for (int vc = 0; vc < cfg_.vcs; ++vc) {
    occupancy_.push_back(&obs::Registry::instance().histogram(
        "sim.occupancy.vc" + std::to_string(vc), 1e-3, 1.3));
  }
}

// Fold the current measurement window: record its injection/ejection rates
// and the instantaneous mean per-VC buffer occupancy (flits per channel),
// and add its counts to the totals the final rates are computed over.
void Simulator::fold_window() {
  auto& met = SimMetrics::get();
  long wi = 0, we = 0;
  for (auto& sh : eng_.shards) {
    wi += sh.window_injected;
    we += sh.window_ejected;
    sh.window_injected = 0;
    sh.window_ejected = 0;
  }
  const long wc = eng_.cycle - window_start_;
  stats_.windows.push_back({wc, wi, we});
  stats_.measured_cycles += wc;
  counted_injected_ += wi;
  counted_ejected_ += we;
  const double node_cycles =
      static_cast<double>(torus_.num_nodes()) * static_cast<double>(wc);
  met.injection_rate.record(static_cast<double>(wi) / node_cycles);
  met.accepted_rate.record(static_cast<double>(we) / node_cycles);
  for (int vc = 0; vc < cfg_.vcs; ++vc) {
    long flits = 0;
    for (int c = 0; c < torus_.num_channels(); ++c) {
      flits += eng_.rings.size(eng_.buffer_index(c, vc));
    }
    occupancy_[vc]->record(static_cast<double>(flits) / torus_.num_channels());
  }
  window_start_ = eng_.cycle;
}

void Simulator::begin_epoch() {
  if (trace_k_ == 0) return;
  epoch_span_ = std::make_unique<trace::Span>("sim.epoch");
  epoch_span_->attr("epoch", epoch_index_);
  epoch_span_->attr("start_cycle", eng_.cycle);
  epoch_start_cycle_ = eng_.cycle;
  epoch_injected_ = 0;
  epoch_ejected_ = 0;
  epoch_handoffs_.assign(eng_.shards.size(), 0);
  for (std::size_t s = 0; s < eng_.shards.size(); ++s) {
    epoch_injected_ += eng_.shards[s].injected;
    epoch_ejected_ += eng_.shards[s].ejected;
    epoch_handoffs_[s] = eng_.shards[s].handoffs;
  }
}

void Simulator::end_epoch() {
  if (epoch_span_ == nullptr) return;
  long injected = 0, ejected = 0;
  for (const auto& sh : eng_.shards) {
    injected += sh.injected;
    ejected += sh.ejected;
  }
  const long cycles = eng_.cycle - epoch_start_cycle_;
  epoch_span_->attr("cycles", cycles);
  epoch_span_->attr("injected", injected - epoch_injected_);
  epoch_span_->attr("ejected", ejected - epoch_ejected_);
  // One child span per shard with its share of the epoch's cross-shard
  // traffic — the flame summary aggregates these by name, so shard balance
  // and handoff volume are visible per run.
  for (std::size_t s = 0; s < eng_.shards.size(); ++s) {
    trace::Span shard_span("sim.epoch.shard");
    shard_span.attr("shard_id", static_cast<long>(s));
    shard_span.attr("handoff_flits", eng_.shards[s].handoffs - epoch_handoffs_[s]);
    shard_span.attr("cycles", cycles);
  }
  epoch_span_.reset();
  ++epoch_index_;
}

// Enter phase p, falling through zero-length phases immediately so a
// configuration like warmup_cycles=0 never simulates a stray cycle.
void Simulator::start_phase(Phase p) {
  while (true) {
    phase_ = p;
    steps_in_phase_ = 0;
    switch (p) {
      case Phase::Warmup:
        phase_span_ = std::make_unique<trace::Span>("sim.warmup");
        begin_epoch();
        if (cfg_.warmup_cycles > 0) return;
        end_epoch();
        phase_span_.reset();
        p = Phase::Measure;
        break;
      case Phase::Measure:
        phase_span_ = std::make_unique<trace::Span>("sim.measure");
        begin_epoch();
        eng_.measuring = true;
        window_start_ = eng_.cycle;
        if (cfg_.measure_cycles > 0) return;
        eng_.measuring = false;
        end_epoch();
        phase_span_.reset();
        p = Phase::Drain;
        break;
      case Phase::Drain:
        eng_.injecting = false;
        phase_span_ = std::make_unique<trace::Span>("sim.drain");
        begin_epoch();
        if (cfg_.drain_cycles > 0 && eng_.live_flits() > 0) return;
        end_epoch();
        phase_span_.reset();
        p = Phase::Done;
        break;
      case Phase::Done:
        stop_ = true;
        return;
    }
  }
}

// Deadlock or cancellation: close out the current phase and stop. A partial
// measurement window is folded (its cycles really elapsed) unless the stop
// is a cancellation, where the window is discarded so the reported rates
// cover only fully-measured samples.
void Simulator::stop_early(bool discard_partial_window) {
  if (phase_ == Phase::Measure) {
    if (!discard_partial_window && eng_.cycle > window_start_) fold_window();
    eng_.measuring = false;
  }
  end_epoch();
  phase_span_.reset();
  phase_ = Phase::Done;
  stop_ = true;
}

void Simulator::tick() {
  const long executed = eng_.cycle;  // the cycle both phases just simulated

  bool moved = false;
  for (const auto& sh : eng_.shards) moved |= sh.moved;
  if (moved) {
    // Movement resuming after a long quiet streak is a deadlock near-miss:
    // the watchdog would have fired had the stall lasted twice as long.
    if (executed - last_movement_ > cfg_.deadlock_threshold / 2) ++near_misses_;
    last_movement_ = executed;
  }
  const long live = eng_.live_flits();
  stats_.flit_cycles += live;
  eng_.cycle = executed + 1;
  ++steps_in_phase_;

  if (phase_ == Phase::Measure && eng_.cycle - window_start_ >= cfg_.stats_window) {
    fold_window();
  }
  if (trace_k_ != 0 && eng_.cycle - epoch_start_cycle_ >= trace_k_) {
    end_epoch();
    begin_epoch();
  }

  if (live > 0 && eng_.cycle - last_movement_ > cfg_.deadlock_threshold) {
    stats_.deadlocked = true;
    stop_early(/*discard_partial_window=*/false);
    return;
  }
  // Run-control safepoint: one flag poll (plus deadline/RSS evaluation)
  // every 256 cycles — far below the cost of a single simulated cycle.
  // Progress counters share the cadence: tick() runs on the coordinator (at
  // epoch barriers in the parallel loop), so the shard counters are
  // quiescent here, and sampling only reads them — simulated state is
  // untouched.
  if (((steps_in_phase_ - 1) & 255) == 0 && trace::listening()) {
    std::int64_t injected = 0, ejected = 0;
    for (const auto& sh : eng_.shards) {
      injected += sh.injected;
      ejected += sh.ejected;
    }
    trace::counter("sim.epoch", static_cast<double>(epoch_index_));
    trace::counter("sim.cycle", static_cast<double>(eng_.cycle));
    trace::counter("sim.injected", static_cast<double>(injected));
    trace::counter("sim.ejected", static_cast<double>(ejected));
    telemetry::poll();
  }
  if (cfg_.cancel != nullptr && ((steps_in_phase_ - 1) & 255) == 0 && cfg_.cancel->check()) {
    stats_.cancelled = true;
    stop_early(/*discard_partial_window=*/true);
    return;
  }

  switch (phase_) {
    case Phase::Warmup:
      if (steps_in_phase_ >= cfg_.warmup_cycles) {
        end_epoch();
        phase_span_.reset();
        start_phase(Phase::Measure);
      }
      break;
    case Phase::Measure:
      if (steps_in_phase_ >= cfg_.measure_cycles) {
        if (eng_.cycle > window_start_) fold_window();  // flush the partial window
        eng_.measuring = false;
        end_epoch();
        phase_span_.reset();
        start_phase(Phase::Drain);
      }
      break;
    case Phase::Drain:
      if (live == 0 || steps_in_phase_ >= cfg_.drain_cycles) {
        end_epoch();
        phase_span_.reset();
        start_phase(Phase::Done);
      }
      break;
    case Phase::Done:
      break;
  }
}

void Simulator::serial_loop(int num_shards) {
  while (!stop_) {
    for (int s = 0; s < num_shards; ++s) eng_.phase1(s);
    for (int s = 0; s < num_shards; ++s) eng_.phase2(s);
    tick();
  }
}

void Simulator::parallel_loop(int threads, int num_shards) {
  EpochBarrier barrier1(threads), barrier2(threads);
  // Kernel exceptions (configuration errors such as an undersized VC count)
  // are latched, not thrown: every participant must keep the barrier
  // cadence or the others spin forever. The first exception is rethrown on
  // the coordinator once all workers have exited.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  auto guard_phase = [&](auto&& body) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      body();
    } catch (...) {
      {
        std::lock_guard lock(error_mu);
        if (error == nullptr) error = std::current_exception();
      }
      failed.store(true, std::memory_order_relaxed);
    }
  };

  ThreadPool pool(static_cast<std::size_t>(threads - 1));
  std::vector<std::future<void>> workers;
  workers.reserve(threads - 1);
  for (int p = 1; p < threads; ++p) {
    workers.push_back(pool.submit([&, p] {
      const auto [lo, hi] = ThreadPool::block_range(num_shards, threads, p);
      while (true) {
        guard_phase([&] {
          for (int s = lo; s < hi; ++s) eng_.phase1(s);
        });
        barrier1.arrive_and_wait();
        guard_phase([&] {
          for (int s = lo; s < hi; ++s) eng_.phase2(s);
        });
        barrier2.arrive_and_wait();
        if (stop_) break;
      }
    }));
  }

  const auto [lo, hi] = ThreadPool::block_range(num_shards, threads, 0);
  while (true) {
    guard_phase([&] {
      for (int s = lo; s < hi; ++s) eng_.phase1(s);
    });
    barrier1.coordinate();
    guard_phase([&] {
      for (int s = lo; s < hi; ++s) eng_.phase2(s);
    });
    barrier2.coordinate([&] {
      if (failed.load(std::memory_order_relaxed)) {
        stop_ = true;
      } else {
        tick();
      }
    });
    if (stop_) break;
  }
  for (auto& w : workers) w.get();
  if (error != nullptr) std::rethrow_exception(error);
}

SimStats Simulator::run() {
  auto& met = SimMetrics::get();
  met.runs.add(1);
  trace::Span run_span("sim.run");
  trace_k_ = cfg_.trace_every_k_cycles > 0 && trace::enabled() ? cfg_.trace_every_k_cycles
                                                               : 0;

  gen_.prepare();
  const int threads = std::max(1, cfg_.threads);
  const int num_shards = cfg_.shards > 0 ? cfg_.shards : threads;
  eng_.init(torus_, gen_, cfg_.faults, cfg_.vcs, cfg_.buffer_depth, num_shards, cfg_.seed,
            std::max(1, gen_.max_path_len()));
  eng_.run_latency = &latency_hist_;

  start_phase(Phase::Warmup);
  if (!stop_) {
    if (threads == 1) {
      serial_loop(num_shards);
    } else {
      parallel_loop(std::min(threads, num_shards), num_shards);
    }
  }

  if (stats_.cancelled && cfg_.cancel != nullptr) stats_.note = cfg_.cancel->note();

  // Fold shard totals and flush the run's metric deltas (deterministic
  // order, independent of thread/shard count).
  long latency_sum = 0, latency_count = 0;
  long latency_min = std::numeric_limits<long>::max(), latency_max = 0;
  long link_down = 0, stalls = 0;
  std::array<std::int64_t, obs::Histogram::kNumBuckets> latency_buckets{};
  for (const auto& sh : eng_.shards) {
    stats_.injected += sh.injected;
    stats_.ejected += sh.ejected;
    for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) latency_buckets[i] += sh.latency_buckets[i];
    latency_min = std::min(latency_min, sh.latency_min);
    latency_max = std::max(latency_max, sh.latency_max);
    latency_sum += sh.latency_sum;
    latency_count += sh.latency_count;
    link_down += sh.link_down_cycles;
    stalls += sh.credit_stalls;
  }
  // The shards tallied in latency_hist_'s geometry; the registry histogram
  // is registered with the same one.
  TCR_REQUIRE(met.latency.least() == latency_hist_.least() &&
                  met.latency.growth() == latency_hist_.growth(),
              "sim.packet_latency was registered with a different bucket geometry");
  for (obs::Histogram* h : {&latency_hist_, &met.latency}) {
    h->merge(latency_buckets.data(), latency_count, static_cast<double>(latency_sum),
             static_cast<double>(latency_min), static_cast<double>(latency_max));
  }
  if (near_misses_ > 0) met.near_misses.add(near_misses_);
  if (link_down > 0) met.link_fault_cycles.add(link_down);
  if (stalls > 0) met.credit_stall_skips.add(stalls);
  if (stats_.deadlocked) met.deadlocks.add(1);

  stats_.cycles_run = eng_.cycle;
  run_span.attr("cycles", stats_.cycles_run);
  run_span.attr("injected", stats_.injected);
  run_span.attr("ejected", stats_.ejected);
  run_span.attr("deadlocked", stats_.deadlocked);
  const double node_cycles =
      static_cast<double>(torus_.num_nodes()) * static_cast<double>(stats_.measured_cycles);
  stats_.offered_rate =
      node_cycles > 0 ? static_cast<double>(counted_injected_) / node_cycles : 0.0;
  stats_.accepted_rate =
      node_cycles > 0 ? static_cast<double>(counted_ejected_) / node_cycles : 0.0;
  stats_.avg_latency = latency_count > 0
                           ? static_cast<double>(latency_sum) / static_cast<double>(latency_count)
                           : 0.0;
  stats_.max_latency = latency_hist_.max();
  stats_.p50_latency = latency_hist_.percentile(0.50);
  stats_.p95_latency = latency_hist_.percentile(0.95);
  stats_.p99_latency = latency_hist_.percentile(0.99);
  return stats_;
}

SimStats simulate(const TorusRouting& routing, double injection_rate,
                  const std::vector<int>& perm, const SimConfig& config) {
  if (perm.empty()) {
    TrafficGen gen(routing, injection_rate, config.seed);
    Simulator sim(routing, gen, config);
    return sim.run();
  }
  TrafficGen gen(routing, injection_rate, perm, config.seed);
  Simulator sim(routing, gen, config);
  return sim.run();
}

double saturation_throughput(const TorusRouting& routing, const std::vector<int>& perm,
                             const SimConfig& config, double tol) {
  double lo = 0.0, hi = 1.0;
  for (int iter = 0; iter < 7; ++iter) {
    const double rate = 0.5 * (lo + hi);
    const SimStats s = simulate(routing, rate, perm, config);
    // A cancelled probe decides nothing; keep the bisection's best-so-far
    // bracket as the (partial) estimate.
    if (s.cancelled) break;
    // Compare against the *measured* offered rate: self-addressed uniform
    // picks never enter the network, so offered < rate under uniform.
    const bool ok = !s.deadlocked && s.accepted_rate >= s.offered_rate * (1.0 - tol);
    if (ok) {
      lo = rate;
    } else {
      hi = rate;
    }
  }
  return lo;
}

}  // namespace tcr
