#include "tcr/obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tcr/util/check.hpp"

namespace tcr::obs {

namespace {

// Lock-free min/max over atomic<double> via CAS.
void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(double least, double growth)
    : least_(least), growth_(growth), inv_log_growth_(1.0 / std::log(growth)) {
  TCR_REQUIRE(least > 0.0 && growth > 1.0, "histogram needs least > 0 and growth > 1");
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);

  // Precompute the bucket boundaries of the reference mapping
  //   index(v) = clamp(1 + floor(log(v / least) / log(growth)), 1, 95)
  // as exact flip points: bound_[k] is the smallest double the reference
  // sends to bucket >= k+1. A closed-form `least * pow(growth, k)` can
  // disagree with the floor(log(...)) by one ulp at the boundary and shift
  // golden-gated percentiles, so each flip point is found by bisecting the
  // reference predicate itself (ctor-time only; ~60 log() calls per
  // boundary). Histogram.BucketIndexMatchesLogFormula pins the equality.
  const auto reference_at_least = [&](double v, int k) {
    // True iff the unclamped reference index of v (>= least) is >= k.
    return 1 + static_cast<int>(std::floor(std::log(v / least_) * inv_log_growth_)) >= k;
  };
  bound_[0] = least_;  // bucket 1 starts exactly at least (the v >= least test)
  for (int k = 1; k < kNumBuckets - 1; ++k) {
    const double est = least_ * std::pow(growth_, k);
    double lo = est, hi = est;
    while (reference_at_least(lo, k + 1)) lo *= 0.5;
    while (!reference_at_least(hi, k + 1)) hi *= 2.0;
    // Invariant: reference(lo) < k+1 <= reference(hi); shrink to adjacent
    // doubles and the flip point is hi.
    while (std::nextafter(lo, hi) < hi) {
      const double mid = lo + 0.5 * (hi - lo);
      if (reference_at_least(mid, k + 1)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    bound_[k] = hi;
  }
  for (int k = kNumBuckets - 1; k < kPaddedBuckets; ++k) {
    bound_[k] = std::numeric_limits<double>::infinity();
  }
}

int Histogram::bucket_index(double v) const noexcept {
  if (!(v >= least_)) return 0;  // also catches NaN and negatives
  // Branchless binary search: count the boundaries <= v. The +inf padding
  // makes every probe in-range, so the loop compiles to seven cmovs.
  int base = 0;
  for (int step = kPaddedBuckets / 2; step != 0; step >>= 1) {
    base += bound_[base + step - 1] <= v ? step : 0;
  }
  return base < kNumBuckets ? base : kNumBuckets - 1;
}

double Histogram::bucket_lower(int i) const noexcept {
  if (i <= 0) return 0.0;
  return least_ * std::pow(growth_, i - 1);
}

double Histogram::bucket_upper(int i) const noexcept {
  return least_ * std::pow(growth_, i);
}

void Histogram::record(double v) noexcept {
  if (std::isnan(v)) return;
  if (v < 0.0) v = 0.0;
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

void Histogram::merge(const std::int64_t* buckets, std::int64_t n, double sum, double min,
                      double max) noexcept {
  if (n <= 0) return;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] != 0) buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
  }
  count_.fetch_add(n, std::memory_order_relaxed);
  atomic_add(sum_, sum);
  atomic_min(min_, min);
  atomic_max(max_, max);
}

double Histogram::mean() const noexcept {
  const std::int64_t c = count();
  return c > 0 ? sum() / static_cast<double>(c) : 0.0;
}

double Histogram::min() const noexcept {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const noexcept {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::percentile(double p) const noexcept {
  const std::int64_t total = count();
  if (total <= 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank in [1, total]; find the bucket containing it and interpolate.
  const double rank = p * static_cast<double>(total);
  std::int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::int64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double frac =
          std::clamp((rank - static_cast<double>(seen)) / static_cast<double>(in_bucket),
                     0.0, 1.0);
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      const double v = lo + frac * (hi - lo);
      // Not std::clamp: a reader racing the first writers may see
      // min() > max() for a moment.
      return std::min(std::max(v, min()), max());
    }
    seen += in_bucket;
  }
  return max();
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(kEmptyMax, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Timer& Registry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = timers_[name];
  if (!slot) slot = std::make_unique<Timer>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, double least, double growth) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(least, growth);
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, t] : timers_) t->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, t] : timers_) {
    snap.timers[name] = {t->count(), t->wall_seconds(), t->cpu_seconds()};
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = {h->count(),          h->sum(),
                             h->min(),            h->max(),
                             h->percentile(0.50), h->percentile(0.95),
                             h->percentile(0.99)};
  }
  return snap;
}

}  // namespace tcr::obs
