// tcr::obs — structured instrumentation for the LP solver, the design
// pipeline and the flit simulator.
//
// Design goals, in order:
//   * near-zero overhead when nobody is looking: metric updates are relaxed
//     atomic increments, and the expensive parts (clock reads in ScopedTimer
//     spans) are gated on Registry::timing_enabled();
//   * one switchboard for every instrumentation sink: the obs timers, the
//     trace ring (trace::Tracer), perf counter sampling (perf::start) and
//     live heartbeats (telemetry::start) are bits of one relaxed atomic
//     mask (sinks()), so every "is anyone watching?" test is one load;
//   * a single process-wide Registry so any layer can expose a metric
//     without plumbing objects through APIs; references handed out by the
//     registry stay valid for the life of the process (metrics are never
//     erased, reset() only zeroes values);
//   * machine-readable output: Snapshot is a stable-keyed value dump that
//     json.hpp serializes to JSON lines for the benches' --json flag.
//
// Metric types:
//   Counter   — monotonic int64 (simplex iterations, refactorizations, ...)
//   Gauge     — last-written double (LP rows/cols/nonzeros, objective, ...)
//   Timer     — accumulated wall + CPU nanoseconds with a span count; fed by
//               RAII ScopedTimer spans
//   Histogram — log-bucketed distribution with percentile queries (packet
//               latencies, LU updates per factorization, LU fill-in, ...)
//
// All updates are thread-safe (the tradeoff sweeps solve LPs on a pool).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "tcr/util/stopwatch.hpp"

namespace tcr::obs {

/// The instrumentation sinks, one bit each of the process-wide enable mask.
enum Sink : unsigned {
  kTimers = 1u << 0,     ///< obs::Timer spans (Registry::set_timing_enabled)
  kTrace = 1u << 1,      ///< trace ring buffer (trace::Tracer::start)
  kPerf = 1u << 2,       ///< perf counter sampling (perf::start)
  kHeartbeat = 1u << 3,  ///< live heartbeat session (telemetry::start)
};

namespace detail {
// Outside any singleton so the disabled fast path of every sink is one
// relaxed load — no function-local-static guard check.
inline std::atomic<unsigned> g_sinks{0};
}  // namespace detail

/// The enabled sinks (a mask of Sink bits). One relaxed atomic load.
inline unsigned sinks() noexcept { return detail::g_sinks.load(std::memory_order_relaxed); }

/// Switch one sink on or off without touching the others.
inline void set_sink(Sink sink, bool on) noexcept {
  if (on) {
    detail::g_sinks.fetch_or(sink, std::memory_order_relaxed);
  } else {
    detail::g_sinks.fetch_and(~static_cast<unsigned>(sink), std::memory_order_relaxed);
  }
}

class Counter {
 public:
  void add(std::int64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Accumulated wall/CPU time over a set of spans. Values in nanoseconds so
/// the hot-path update is an integer add.
class Timer {
 public:
  void add(std::int64_t wall_ns, std::int64_t cpu_ns) noexcept {
    wall_ns_.fetch_add(wall_ns, std::memory_order_relaxed);
    cpu_ns_.fetch_add(cpu_ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double wall_seconds() const noexcept {
    return 1e-9 * static_cast<double>(wall_ns_.load(std::memory_order_relaxed));
  }
  double cpu_seconds() const noexcept {
    return 1e-9 * static_cast<double>(cpu_ns_.load(std::memory_order_relaxed));
  }
  void reset() noexcept {
    wall_ns_.store(0, std::memory_order_relaxed);
    cpu_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> wall_ns_{0};
  std::atomic<std::int64_t> cpu_ns_{0};
  std::atomic<std::int64_t> count_{0};
};

/// Log-bucketed histogram over non-negative values.
///
/// Bucket 0 holds values in [0, least); bucket i >= 1 holds
/// [least * growth^(i-1), least * growth^i). Percentiles interpolate
/// linearly inside the containing bucket and are clamped to the observed
/// [min, max].
///
/// Quantile bias bound: only the bucket of a sample is stored, so a
/// percentile query returns some point of the containing bucket [lo,
/// lo*growth). The true quantile v is also in that bucket, hence the
/// estimate e satisfies |e - v| <= (growth - 1) * lo <= (growth - 1) * v:
/// the relative error of any percentile is < growth - 1 (e.g. < 100% at the
/// default growth 2.0, < 20% at growth 1.2). Caveats: bucket 0 is linear,
/// so near-zero values carry absolute (not relative) error < least; values
/// beyond the last bucket boundary (least * growth^(kNumBuckets-1), ~8.6
/// for least 1e-3 at growth 1.1 but astronomically large at the default
/// growth 2.0) saturate into the top bucket, voiding the bound; and the
/// [min, max] clamp makes the p0/p100 endpoints exact. The bound is pinned
/// by Histogram.QuantileRelativeErrorBounded (tests/test_obs.cpp).
class Histogram {
 public:
  static constexpr int kNumBuckets = 96;
  /// Boundary table padded to a power of two so bucket_index can run a
  /// fixed-trip branchless binary search with no bounds checks.
  static constexpr int kPaddedBuckets = 128;

  explicit Histogram(double least = 1e-9, double growth = 2.0);

  void record(double v) noexcept;

  /// Add a tally kept elsewhere, as if its n samples had been record()ed:
  /// `buckets` holds kNumBuckets counts in this histogram's geometry (see
  /// bucket_index) summing to n, and sum/min/max are the samples' (already
  /// clamped to >= 0). The sum is added in one step, so it is exact when
  /// the samples are integer-valued. n == 0 is a no-op. Thread-safe.
  void merge(const std::int64_t* buckets, std::int64_t n, double sum, double min,
             double max) noexcept;

  std::int64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  double min() const noexcept;  // 0 when empty
  double max() const noexcept;  // 0 when empty

  /// p in [0, 1]; returns 0 when empty.
  double percentile(double p) const noexcept;

  void reset() noexcept;

  // Bucket geometry (exposed for tests).
  double least() const noexcept { return least_; }
  double growth() const noexcept { return growth_; }
  int bucket_index(double v) const noexcept;
  double bucket_lower(int i) const noexcept;
  double bucket_upper(int i) const noexcept;
  std::int64_t bucket_count(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  double least_;
  double growth_;
  double inv_log_growth_;
  /// bound_[k] is the smallest double that maps to bucket k+1 under the
  /// original `1 + floor(log(v/least) / log(growth))` formula (computed by
  /// flip-point bisection in the ctor, so the table lookup is bit-identical
  /// to the log — the simulator's golden latency percentiles depend on the
  /// exact mapping); entries past bucket 95 are +inf padding. record() then
  /// costs a branchless 7-step search instead of a std::log per sample —
  /// the simulator ejection path records into two histograms per flit
  /// (BM_HistogramRecord measures the win).
  double bound_[kPaddedBuckets];
  std::atomic<std::int64_t> buckets_[kNumBuckets];
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Empty sentinels, so concurrent first samples need no special case.
  static constexpr double kEmptyMin = std::numeric_limits<double>::infinity();
  static constexpr double kEmptyMax = -std::numeric_limits<double>::infinity();
  std::atomic<double> min_{kEmptyMin};
  std::atomic<double> max_{kEmptyMax};
};

/// Plain-value dump of every registered metric, keyed by name in sorted
/// order (std::map) so serialized output is stable across runs.
struct Snapshot {
  struct TimerValue {
    std::int64_t count = 0;
    double wall_seconds = 0.0;
    double cpu_seconds = 0.0;
  };
  /// min/max/sum are exact; the percentiles inherit the log-bucket quantile
  /// bias documented on Histogram (relative error < growth - 1).
  struct HistogramValue {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, TimerValue> timers;
  std::map<std::string, HistogramValue> histograms;
};

/// Process-wide metric registry. Lookups take a mutex — call sites cache the
/// returned references (valid forever) instead of resolving names in hot
/// loops.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Timer& timer(const std::string& name);
  /// The bucket geometry is fixed by whichever call registers `name` first.
  Histogram& histogram(const std::string& name, double least = 1e-9, double growth = 2.0);

  /// Zero every metric value. Registrations (and outstanding references)
  /// survive.
  void reset();

  /// Gates the clock reads of ScopedTimer spans. Off by default so
  /// fine-grained solver timing costs nothing unless a consumer (e.g. a
  /// bench's --json sink) turns it on.
  bool timing_enabled() const noexcept { return (sinks() & kTimers) != 0; }
  void set_timing_enabled(bool on) noexcept { set_sink(kTimers, on); }

  Snapshot snapshot() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII span feeding a Timer. When disabled (the default unless
/// Registry::timing_enabled()), construction and destruction read no clocks.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer)
      : ScopedTimer(timer, (sinks() & kTimers) != 0) {}
  ScopedTimer(Timer& timer, bool enabled) : timer_(&timer), enabled_(enabled) {
    if (enabled_) {
      wall_start_ = std::chrono::steady_clock::now();
      cpu_start_ = Stopwatch::cpu_now();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { stop(); }

  /// Record the span early (idempotent).
  void stop() noexcept {
    if (!enabled_) return;
    enabled_ = false;
    const auto wall = std::chrono::steady_clock::now() - wall_start_;
    const double cpu = Stopwatch::cpu_now() - cpu_start_;
    timer_->add(std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count(),
                static_cast<std::int64_t>(cpu * 1e9));
  }

 private:
  Timer* timer_;
  bool enabled_;
  std::chrono::steady_clock::time_point wall_start_{};
  double cpu_start_ = 0.0;
};

}  // namespace tcr::obs
