// tcr::perf — hardware-counter phase sampling with graceful degradation.
//
// The measurement substrate for the repo's speed claims: every bench phase
// (and any trace span that opts in) can be annotated with microarchitectural
// counts, not just wall-clock. Model, in order of importance:
//
//   * near-zero cost when nobody is looking: collecting() is one relaxed
//     atomic load, so a PhaseSampler at a disabled call site costs one
//     branch;
//   * graceful degradation: start() tries a perf_event_open counter set
//     (cycles, instructions, cache-misses, branch-misses; user-space only,
//     inherited by threads spawned afterwards). Containers and CI runners
//     routinely refuse the syscall or lack a PMU (perf_event_paranoid,
//     seccomp, VMs without vPMU) — then the sampler degrades to the
//     getrusage / /proc/self/status backend (CPU time, peak RSS, page
//     faults, context switches) and Sample::source says which backend ran,
//     so downstream tooling never mistakes one machine's rusage numbers for
//     another's cycle counts;
//   * allocation accounting rides along: binaries that link the
//     `tcr_alloc_hook` library get process-wide operator new/delete
//     counting (two relaxed atomic adds per allocation); the counters are
//     inline atomics here so the hook stays link-optional.
//
// Consumers: bench::JsonOutput (--perf flag) attaches a per-point `perf`
// block to the schema-v1 records, and tools/tcr_perf.cpp turns the recorded blocks
// into an append-only BENCH_history store with regression gating
// (perf/history.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "tcr/obs/json.hpp"

namespace tcr::perf {

namespace detail {
// Allocation accounting, fed by the link-optional tcr_alloc_hook library's
// operator new/delete replacements. Inline atomics: the hook references
// them without creating an archive-order dependency on libtcr.
inline std::atomic<std::int64_t> g_alloc_count{0};
inline std::atomic<std::int64_t> g_alloc_bytes{0};
inline std::atomic<std::int64_t> g_free_count{0};
inline std::atomic<bool> g_alloc_hook_active{false};

inline void note_alloc(std::size_t bytes) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::int64_t>(bytes), std::memory_order_relaxed);
}
inline void note_free() noexcept { g_free_count.fetch_add(1, std::memory_order_relaxed); }
}  // namespace detail

/// Is the process-wide sampler collecting (the obs::kPerf sink bit)? One
/// relaxed atomic load.
inline bool collecting() noexcept { return (obs::sinks() & obs::kPerf) != 0; }

/// True when the program linked tcr_alloc_hook (operator new/delete are
/// counted). When false, the alloc_* fields of every Sample stay 0.
inline bool alloc_hook_active() noexcept {
  return detail::g_alloc_hook_active.load(std::memory_order_relaxed);
}

struct PerfConfig {
  /// Skip perf_event_open entirely and use the rusage backend — what a
  /// refused syscall degrades to anyway. Env override: TCR_PERF_FORCE_RUSAGE=1.
  bool force_rusage = false;
  /// Test hook: multiply the time/cycle-like quantities of every Sample by
  /// this factor, so the regression gate can be proven to fire on a
  /// synthetic 2x slowdown without actually slowing the binaries down
  /// (mirrors the tcr::fault injection idiom). Env override:
  /// TCR_PERF_INJECT_SCALE=<double>. Allocation, RSS and fault counts are
  /// never scaled.
  double inject_scale = 1.0;
};

/// One phase's measured quantities. All fields are deltas over the phase
/// except max_rss_kb, which is the process high-water mark (monotone).
/// Hardware fields are -1 when the active backend has no such counter.
struct Sample {
  std::string source;  ///< "perf_event", "rusage", or "off"
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;  ///< user + system, via getrusage (both backends)

  // perf_event backend only (-1 = counter unavailable):
  std::int64_t cycles = -1;
  std::int64_t instructions = -1;
  std::int64_t cache_misses = -1;
  std::int64_t branch_misses = -1;

  // getrusage / /proc/self/status (both backends):
  std::int64_t max_rss_kb = 0;  ///< peak RSS (VmHWM; ru_maxrss fallback)
  std::int64_t minor_faults = 0;
  std::int64_t major_faults = 0;
  std::int64_t vol_ctx_switches = 0;
  std::int64_t invol_ctx_switches = 0;

  // tcr_alloc_hook (zeros when the hook is not linked):
  std::int64_t alloc_count = 0;
  std::int64_t alloc_bytes = 0;

  /// The `perf` block of a bench record: every field above, hardware
  /// counters included only when available (>= 0).
  obs::Json to_json() const;
};

/// `s` with its time/cycle-like quantities (wall_ns, cpu_ns, cycles,
/// instructions, cache_misses, branch_misses) multiplied by `factor`;
/// allocation, RSS, fault and context-switch counts pass through untouched.
/// This is the whole of what PerfConfig::inject_scale does, exposed pure so
/// tests can pin it.
Sample scale_sample(Sample s, double factor);

/// Current peak RSS of the process in KB (VmHWM from /proc/self/status,
/// getrusage fallback). Independent of collecting() — guard::CancelToken
/// polls this for its memory budget.
std::int64_t process_peak_rss_kb();

/// Start process-wide collection: opens the counter backend (perf_event
/// first unless forced to rusage, which is also what any open failure
/// degrades to) and sets the obs::kPerf sink bit. Reads the TCR_PERF_* env
/// overrides documented on PerfConfig. Idempotent: a second start() reopens
/// with the new config.
void start(const PerfConfig& config = {});

/// Stop collecting and close any counter fds.
void stop();

/// Name of the active backend ("perf_event" | "rusage"), or "off".
std::string source();

/// Phase sampler: captures a baseline reading at construction (or reset())
/// and returns the delta on sample(). Constructing while !collecting()
/// yields an inert sampler whose sample() is all-zero with source "off".
/// Reading costs a getrusage call plus one read() per open counter fd —
/// meant for bench-phase granularity, not per-iteration hot loops.
class PhaseSampler {
 public:
  PhaseSampler();

  /// Quantities accumulated since construction / the last reset().
  Sample sample() const;

  /// Re-baseline, so the next sample() covers exactly the work since this
  /// call (bench::JsonOutput resets after every point record, mirroring the
  /// obs registry reset).
  void reset();

  /// False when the sampler was constructed while collecting() was off.
  bool active() const noexcept { return active_; }

 private:
  struct Baseline {
    std::int64_t wall_ns = 0;
    double cpu_s = 0.0;
    std::int64_t hw[4] = {0, 0, 0, 0};
    std::int64_t minor_faults = 0;
    std::int64_t major_faults = 0;
    std::int64_t vol_ctx = 0;
    std::int64_t invol_ctx = 0;
    std::int64_t alloc_count = 0;
    std::int64_t alloc_bytes = 0;
  };
  bool active_ = false;
  Baseline base_;
};

}  // namespace tcr::perf
