// Cycle-based flit-level network simulator for k-ary 2-cubes.
//
// Deliberately close to the paper's idealization (§2.1): single-flit
// packets, per-VC input buffering with credit (space) checks, one flit per
// channel per cycle, one ejection per node per cycle, round-robin output
// arbitration. Packets are source-routed along paths sampled from an
// oblivious routing algorithm and carry the VC schedule computed by
// assign_vcs(). A watchdog flags deadlock (occupied network with no flit
// movement for a configurable number of cycles) — this is how the library
// *tests* the paper's virtual-channel claims instead of assuming them.
//
// The engine is struct-of-arrays and shardable: the torus is partitioned
// into contiguous node blocks simulated by `threads` workers in lock-step
// phases, with cross-shard flit handoffs staged through mailboxes (see
// sharding.hpp and docs/simulator.md). Results are a pure function of
// (routing, traffic, config, seed): `threads=N` is bitwise-identical to
// `threads=1` for every stat, latency and counter.
//
// Units, throughout: a *cycle* is the simulation timestep (one hop of
// motion per flit at most); a *window* is `stats_window` consecutive
// measurement cycles (the rate-sampling granule); an *epoch* is
// `trace_every_k_cycles` cycles (the tracing granule). Rates are flits per
// node per cycle; latencies are cycles from injection to ejection.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tcr/guard/guard.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/sim/network.hpp"
#include "tcr/sim/sharding.hpp"
#include "tcr/sim/soa_state.hpp"
#include "tcr/sim/traffic_gen.hpp"
#include "tcr/trace/tracer.hpp"

namespace tcr::fault {
struct SimFaultPlan;
}

namespace tcr {

struct SimConfig {
  int vcs = 4;               // virtual channels per physical channel
  int buffer_depth = 4;      // flits per VC buffer
  int warmup_cycles = 2000;
  int measure_cycles = 8000;
  int drain_cycles = 20000;       // post-measurement drain budget
  int deadlock_threshold = 2000;  // quiet cycles before declaring deadlock
  int stats_window = 500;         // cycles per injection/ejection-rate sample
  /// Worker threads simulating the torus (1 = serial). Purely a speed knob:
  /// every statistic is bitwise-identical for any thread count.
  int threads = 1;
  /// Shard (node-block) count; 0 = one shard per thread. Exposed separately
  /// so tests can pin shard counts that do not divide the thread count.
  /// Also does not affect results.
  int shards = 0;
  /// Emit one sim.epoch trace span (with that epoch's injected/ejected flit
  /// counts) every this many cycles while a tracer is collecting. 0 = off;
  /// the knob costs one comparison per cycle only when tracing is enabled
  /// at run() start. Under sharding each epoch also emits one
  /// sim.epoch.shard span per shard carrying shard_id / handoff_flits
  /// attributes. Independently of this knob, the run-control safepoint
  /// samples the sim.epoch, sim.cycle, sim.injected and sim.ejected counter
  /// tracks every 256 cycles whenever a tracer or heartbeat is listening.
  int trace_every_k_cycles = 0;
  std::uint64_t seed = 42;
  /// Optional fault-injection plan (tcr::fault): links down and credit
  /// stalls during cycle windows. Not owned; must outlive the run.
  const fault::SimFaultPlan* faults = nullptr;
  /// Optional run-control token (tcr::guard; not owned). Polled every 256
  /// cycles: when it fires, the run stops at the next poll and returns the
  /// statistics gathered so far with SimStats::cancelled set and the
  /// token's diagnosis in SimStats::note — partial numbers, clearly marked,
  /// never an abort.
  guard::CancelToken* cancel = nullptr;
};

/// One fully-measured rate-sampling window (stats_window cycles, except a
/// shorter final window when the measurement phase ends mid-window).
struct SimWindow {
  long cycles = 0;    // window length in cycles
  long injected = 0;  // flits injected network-wide during the window
  long ejected = 0;   // flits ejected network-wide during the window
};

struct SimStats {
  bool deadlocked = false;
  /// The run was stopped early by SimConfig::cancel; every rate/latency
  /// field covers only the cycles actually simulated (see note), and a
  /// partially-measured window is discarded rather than diluting the rates.
  bool cancelled = false;
  std::string note;  ///< stop diagnosis when cancelled; empty otherwise
  long injected = 0;
  long ejected = 0;
  double offered_rate = 0.0;   // injections per node per cycle, over `windows`
  double accepted_rate = 0.0;  // ejections per node per cycle, over `windows`
  double avg_latency = 0.0;    // cycles, injection to ejection
  double max_latency = 0.0;    // worst measured packet latency, cycles
  double p50_latency = 0.0;    // latency percentiles over measured packets
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  long cycles_run = 0;
  /// The rate samples actually counted. On an uninterrupted run these cover
  /// exactly measure_cycles; when a deadline/cancel stops mid-window the
  /// partial window is dropped, so offered/accepted_rate equal the rates an
  /// uninterrupted run would report over the same full-window prefix.
  std::vector<SimWindow> windows;
  long measured_cycles = 0;  // sum of windows[i].cycles
  /// Σ (live flits) over every simulated cycle — the work metric behind the
  /// flit-cycles/sec throughput the saturation bench reports with --perf.
  long flit_cycles = 0;
};

class Simulator {
 public:
  Simulator(const TorusRouting& routing, TrafficGen& gen, const SimConfig& config);

  /// Run warmup + measurement (+ drain); returns collected statistics.
  SimStats run();

 private:
  enum class Phase { Warmup, Measure, Drain, Done };

  void serial_loop(int num_shards);
  void parallel_loop(int threads, int num_shards);
  /// Serial per-cycle bookkeeping (coordinator only): movement/watchdog,
  /// window folding, epoch tracing, cancellation, phase transitions.
  void tick();
  void start_phase(Phase p);
  void stop_early(bool discard_partial_window);
  void fold_window();
  void begin_epoch();
  void end_epoch();

  const Torus& torus_;
  TrafficGen& gen_;
  SimConfig cfg_;

  sim_detail::Engine eng_;
  bool stop_ = false;
  Phase phase_ = Phase::Warmup;
  long steps_in_phase_ = 0;
  long last_movement_ = 0;
  long near_misses_ = 0;
  SimStats stats_;
  long counted_injected_ = 0;  // injections inside folded windows
  long counted_ejected_ = 0;

  // Per-run latency distribution (cycles); feeds the SimStats percentiles.
  obs::Histogram latency_hist_{1.0, 1.2};
  // Registry per-VC occupancy histograms, resolved once at construction.
  std::vector<obs::Histogram*> occupancy_;
  long window_start_ = 0;

  // Epoch-tracing state; trace_k_ is resolved once per run() (0 when tracing
  // was disabled at run start, so tick() pays a single integer compare).
  int trace_k_ = 0;
  std::unique_ptr<trace::Span> phase_span_;
  std::unique_ptr<trace::Span> epoch_span_;
  long epoch_index_ = 0;
  long epoch_start_cycle_ = 0;
  long epoch_injected_ = 0;  // network totals at epoch start
  long epoch_ejected_ = 0;
  std::vector<long> epoch_handoffs_;  // per-shard handoff totals at epoch start
};

/// Convenience wrapper: simulate `routing` under uniform or permutation
/// traffic at the given injection rate.
SimStats simulate(const TorusRouting& routing, double injection_rate,
                  const std::vector<int>& perm /* empty = uniform */,
                  const SimConfig& config = {});

/// Estimate the saturation throughput (packets/node/cycle) by bisecting the
/// injection rate for the largest rate whose accepted throughput tracks the
/// offered load within `tol`.
double saturation_throughput(const TorusRouting& routing, const std::vector<int>& perm,
                             const SimConfig& config = {}, double tol = 0.05);

}  // namespace tcr
