#include "tcr/trace/tracer.hpp"

#include "tcr/telemetry/telemetry.hpp"
#include "tcr/util/stopwatch.hpp"

namespace tcr::trace {

namespace detail {

ThreadState& thread_state() noexcept {
  thread_local ThreadState state;
  return state;
}

std::uint32_t thread_id() noexcept {
  static std::atomic<std::uint32_t> next{0};
  ThreadState& ts = thread_state();
  if (!ts.tid_assigned) {
    ts.tid = next.fetch_add(1, std::memory_order_relaxed);
    ts.tid_assigned = true;
  }
  return ts.tid;
}

void counter_slow(std::string_view track, double value, unsigned sinks) {
  if ((sinks & obs::kTrace) != 0) {
    auto& tracer = Tracer::instance();
    Event e;
    e.type = Event::Type::kCounter;
    e.name.assign(track.data(), track.size());
    e.parent = current_context().id;
    e.tid = thread_id();
    e.start_ns = tracer.now_ns();
    e.value = value;
    tracer.record(std::move(e));
  }
  if ((sinks & obs::kHeartbeat) != 0) telemetry::detail::note_track(track, value);
}

}  // namespace detail

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start(const TracerConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  capacity_ = config.capacity > 0 ? config.capacity : 1;
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
  head_ = 0;
  dropped_ = 0;
  next_id_.store(1, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  obs::set_sink(obs::kTrace, true);
}

void Tracer::stop() { obs::set_sink(obs::kTrace, false); }

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

std::int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Event> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  // The ring holds [head_, end) then [0, head_) in age order once it wrapped.
  for (std::size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  return out;
}

void Tracer::record(Event&& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

Span::Span(std::string_view name, obs::Timer* timer, SpanContext parent,
           bool explicit_parent)
    : name_(name), timer_(timer) {
  const unsigned sinks = obs::sinks();
  named_ = (sinks & (obs::kTrace | obs::kHeartbeat)) != 0;
  traced_ = (sinks & obs::kTrace) != 0;
  timed_ = timer_ != nullptr && (sinks & obs::kTimers) != 0;
  if (!named_ && !timed_) return;
  detail::ThreadState& ts = detail::thread_state();
  if (named_) {
    saved_name_ = ts.name;
    ts.name = name_;
  }
  if (!traced_ && !timed_) return;
  auto& tracer = Tracer::instance();
  start_ns_ = tracer.now_ns();
  if (timed_) cpu_start_ = Stopwatch::cpu_now();
  if (traced_) {
    id_ = tracer.next_span_id();
    parent_ = explicit_parent ? parent.id
                              : (ts.current != 0 ? ts.current : ts.adopted);
    saved_current_ = ts.current;
    ts.current = id_;
  }
}

void Span::attr(std::string_view key, std::int64_t v) {
  if (!traced_) return;
  Attr a;
  a.key.assign(key.data(), key.size());
  a.kind = Attr::Kind::kInt;
  a.i = v;
  attrs_.push_back(std::move(a));
}

void Span::attr(std::string_view key, double v) {
  if (!traced_) return;
  Attr a;
  a.key.assign(key.data(), key.size());
  a.kind = Attr::Kind::kDouble;
  a.d = v;
  attrs_.push_back(std::move(a));
}

void Span::attr(std::string_view key, bool v) {
  if (!traced_) return;
  Attr a;
  a.key.assign(key.data(), key.size());
  a.kind = Attr::Kind::kBool;
  a.b = v;
  attrs_.push_back(std::move(a));
}

void Span::attr(std::string_view key, std::string_view v) {
  if (!traced_) return;
  Attr a;
  a.key.assign(key.data(), key.size());
  a.kind = Attr::Kind::kString;
  a.s.assign(v.data(), v.size());
  attrs_.push_back(std::move(a));
}

void Span::end() {
  if (named_) {
    detail::thread_state().name = saved_name_;
    named_ = false;
  }
  if (!traced_ && !timed_) return;
  auto& tracer = Tracer::instance();
  const std::int64_t end_ns = tracer.now_ns();
  if (timed_) {
    const double cpu = Stopwatch::cpu_now() - cpu_start_;
    timer_->add(end_ns - start_ns_, static_cast<std::int64_t>(cpu * 1e9));
    timed_ = false;
  }
  if (traced_) {
    detail::thread_state().current = saved_current_;
    Event e;
    e.type = Event::Type::kSpan;
    e.name.assign(name_.data(), name_.size());
    e.id = id_;
    e.parent = parent_;
    e.tid = detail::thread_id();
    e.start_ns = start_ns_;
    e.dur_ns = end_ns - start_ns_;
    e.attrs = std::move(attrs_);
    tracer.record(std::move(e));
    traced_ = false;
  }
}

}  // namespace tcr::trace
