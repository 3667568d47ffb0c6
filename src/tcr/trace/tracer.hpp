// tcr::trace — low-overhead hierarchical span tracing.
//
// Model, in order of importance:
//   * near-zero cost when nobody is looking: whether a span is traced,
//     timed or tracked is read from the obs sink mask (obs::sinks()) in one
//     relaxed atomic load, so a Span with every sink off costs one branch at
//     construction and one at destruction — no clock reads, no allocation,
//     no registry traffic (asserted by tests/test_trace.cpp and the
//     BM_TraceSpanDisabled micro-kernel);
//   * hierarchy without plumbing: each thread keeps a current-span cursor,
//     so nested spans link to their enclosing span automatically. Structure
//     survives a hop onto the ThreadPool because ThreadPool::submit()
//     captures the scheduling thread's SpanContext and installs it as the
//     worker's ambient parent (ScopedParent) for the duration of the task;
//   * one call site, every consumer: spans and counters are the only
//     progress call sites, and each sink reads them —
//       - obs timers: the Span(name, timer) form feeds an obs::Timer under
//         the obs::kTimers bit (what obs::ScopedTimer does);
//       - the trace ring (obs::kTrace): completed spans and counter samples
//         become events;
//       - live heartbeats (obs::kHeartbeat): a span keeps this thread's
//         "innermost open span name" (the heartbeat's phase), and a counter
//         sample lands in the heartbeat session's latest-value-per-track
//         table (tcr::telemetry).
//     Clocks are read only when the trace or timer sink wants the span.
//
// Events land in a bounded in-memory ring buffer (oldest overwritten,
// drops counted). trace::write_chrome_trace() (export.hpp) serializes the
// buffer as Chrome trace-event JSON, which loads in Perfetto and
// chrome://tracing; tools/tcr_trace.cpp turns a trace file into flame
// summaries and simplex convergence reports.
//
// Counter events (trace::counter) form Perfetto counter tracks — the
// simplex convergence telemetry (lp.iteration, lp.objective,
// lp.primal_infeas, ..., every 32 iterations), the simulator's progress
// (sim.epoch, sim.cycle, sim.injected, sim.ejected, every 256 cycles) and
// sweep progress (sweep.total, sweep.done, sweep.warm_adopted). Each
// counter carries the current span as parent so tools can group telemetry
// per solve.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tcr/obs/registry.hpp"

namespace tcr::trace {

/// Is tracing currently collecting events? One relaxed atomic load.
inline bool enabled() noexcept { return (obs::sinks() & obs::kTrace) != 0; }

/// Is any span/counter sink listening (the trace ring or a heartbeat
/// session)? Sites that must compute a counter's value gate on this.
inline bool listening() noexcept {
  return (obs::sinks() & (obs::kTrace | obs::kHeartbeat)) != 0;
}

/// One key/value span attribute (small tagged union).
struct Attr {
  enum class Kind : std::uint8_t { kInt, kDouble, kBool, kString };
  std::string key;
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  bool b = false;
  std::string s;
};

/// One trace event: a completed span or a counter sample.
struct Event {
  enum class Type : std::uint8_t { kSpan, kCounter };
  Type type = Type::kSpan;
  std::string name;
  std::uint64_t id = 0;       // span id (unique per Tracer::start); 0 for counters
  std::uint64_t parent = 0;   // enclosing span id; 0 = root
  std::uint32_t tid = 0;      // dense per-thread index (0 = first thread seen)
  std::int64_t start_ns = 0;  // monotonic, relative to the Tracer::start() epoch
  std::int64_t dur_ns = 0;    // span duration; 0 for counters
  double value = 0.0;         // counter value; unused for spans
  std::vector<Attr> attrs;
};

struct TracerConfig {
  /// Ring-buffer capacity in events; the oldest events are overwritten once
  /// full (Tracer::dropped() counts the overwrites).
  std::size_t capacity = 1 << 18;
};

/// Handle to a live (or root) span, used for explicit cross-thread parent
/// links. id == 0 means "no parent" (a root span).
struct SpanContext {
  std::uint64_t id = 0;
};

/// Process-wide trace collector. All methods are thread-safe.
class Tracer {
 public:
  static Tracer& instance();

  /// Enable collection: clears the buffer, resets the clock epoch and span
  /// ids, and sets the obs::kTrace sink bit.
  void start(const TracerConfig& config = {});
  /// Stop collecting. Buffered events survive for export.
  void stop();
  /// Drop all buffered events (does not change the sink bit).
  void clear();

  /// Events overwritten because the ring buffer was full.
  std::int64_t dropped() const;
  /// Copy of the buffered events, oldest first.
  std::vector<Event> events() const;

  // --- internal API used by Span / counter() -------------------------------
  std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  std::uint64_t next_span_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(Event&& e);

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::size_t capacity_ = 1 << 18;
  std::size_t head_ = 0;  // overwrite cursor once the ring is full
  std::int64_t dropped_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point epoch_{};
};

namespace detail {
// Per-thread cursor: the innermost live span plus the ambient parent a
// ThreadPool task adopted from its scheduler.
struct ThreadState {
  std::uint64_t current = 0;  // innermost traced span on this thread
  std::uint64_t adopted = 0;  // ambient parent for root spans (pool handoff)
  std::string_view name;      // innermost open span (trace or heartbeat live)
  std::uint32_t tid = 0;
  bool tid_assigned = false;
};
ThreadState& thread_state() noexcept;
std::uint32_t thread_id() noexcept;
void counter_slow(std::string_view track, double value, unsigned sinks);
}  // namespace detail

/// Name of the innermost span open on this thread while the trace or
/// heartbeat sink is on; empty outside every span. The heartbeat's phase.
inline std::string_view current_span_name() noexcept { return detail::thread_state().name; }

/// Context of the innermost live span on this thread (the ambient parent
/// when no span is live). Cheap enough to capture unconditionally.
inline SpanContext current_context() noexcept {
  const auto& ts = detail::thread_state();
  return {ts.current != 0 ? ts.current : ts.adopted};
}

/// Installs `ctx` as this thread's ambient parent: spans opened while it is
/// in scope (and not nested in another live span) parent to `ctx`.
/// ThreadPool::submit() wraps every task in one of these so work scheduled
/// from inside a span stays attached to it across threads.
class ScopedParent {
 public:
  explicit ScopedParent(SpanContext ctx) noexcept
      : saved_(detail::thread_state().adopted) {
    detail::thread_state().adopted = ctx.id;
  }
  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;
  ~ScopedParent() { detail::thread_state().adopted = saved_; }

 private:
  std::uint64_t saved_;
};

/// RAII hierarchical span. Construction captures the parent (innermost live
/// span on this thread, the adopted ambient parent, or an explicit
/// SpanContext) and the start time; destruction emits the completed event.
/// Which sinks a span feeds is fixed at construction from one read of the
/// sink mask; with none of them on, every method is a no-op.
class Span {
 public:
  explicit Span(std::string_view name) : Span(name, nullptr, SpanContext{}, false) {}
  /// Explicit cross-thread parent (overrides the thread-local cursor).
  Span(std::string_view name, SpanContext parent)
      : Span(name, nullptr, parent, true) {}
  /// Span that also feeds an obs::Timer — the drop-in replacement for
  /// obs::ScopedTimer at sites that should appear in traces. The timer is
  /// fed exactly when obs::Registry::timing_enabled() (unchanged obs
  /// semantics); the trace event is emitted exactly when trace::enabled().
  Span(std::string_view name, obs::Timer& timer)
      : Span(name, &timer, SpanContext{}, false) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// Live-span context for handing to explicitly-parented child spans.
  SpanContext context() const noexcept { return {id_}; }

  /// Attach a key/value attribute (exported into the trace event's args).
  /// No-ops (and does not allocate) when the span is disabled.
  void attr(std::string_view key, std::int64_t v);
  void attr(std::string_view key, int v) { attr(key, static_cast<std::int64_t>(v)); }
  void attr(std::string_view key, double v);
  void attr(std::string_view key, bool v);
  void attr(std::string_view key, std::string_view v);
  void attr(std::string_view key, const char* v) { attr(key, std::string_view(v)); }

  /// End the span early (idempotent; the destructor is then a no-op).
  void end();

 private:
  Span(std::string_view name, obs::Timer* timer, SpanContext parent, bool explicit_parent);

  std::string_view name_;
  obs::Timer* timer_ = nullptr;
  bool named_ = false;  // pushed onto the thread's open-span name cursor
  bool traced_ = false;
  bool timed_ = false;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t saved_current_ = 0;
  std::string_view saved_name_;
  std::int64_t start_ns_ = 0;
  double cpu_start_ = 0.0;
  std::vector<Attr> attrs_;
};

/// Emit one sample of the counter track `track`: a Perfetto counter event
/// when tracing, the track's latest value when a heartbeat session is live.
/// One branch when neither sink is on.
inline void counter(std::string_view track, double value) {
  const unsigned sinks = obs::sinks();
  if ((sinks & (obs::kTrace | obs::kHeartbeat)) == 0) return;
  detail::counter_slow(track, value, sinks);
}

}  // namespace tcr::trace
