// tcr::obs unit tests: registry registration/reset semantics, histogram
// bucket geometry, percentile math and tally merging, and the JSON-lines
// serialization (parseable, stable key order, round-trip doubles).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tcr/obs/json.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/sim/simulator.hpp"
#include "tcr/util/rng.hpp"

namespace tcr::obs {
namespace {

// The registry is process-wide and shared with every other test in this
// binary, so each test uses its own metric names.

TEST(Registry, SameNameReturnsSameInstance) {
  auto& a = Registry::instance().counter("test.reg.counter");
  auto& b = Registry::instance().counter("test.reg.counter");
  EXPECT_EQ(&a, &b);
  auto& g1 = Registry::instance().gauge("test.reg.gauge");
  auto& g2 = Registry::instance().gauge("test.reg.gauge");
  EXPECT_EQ(&g1, &g2);
  auto& h1 = Registry::instance().histogram("test.reg.hist", 1.0, 2.0);
  auto& h2 = Registry::instance().histogram("test.reg.hist", 5.0, 3.0);  // first geometry wins
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.least(), 1.0);
  EXPECT_DOUBLE_EQ(h2.growth(), 2.0);
}

TEST(Registry, ResetZeroesValuesButKeepsRegistrations) {
  auto& c = Registry::instance().counter("test.reset.counter");
  auto& g = Registry::instance().gauge("test.reset.gauge");
  auto& t = Registry::instance().timer("test.reset.timer");
  auto& h = Registry::instance().histogram("test.reset.hist");
  c.add(7);
  g.set(2.5);
  t.add(1000, 500);
  h.record(3.0);
  Registry::instance().reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(t.count(), 0);
  EXPECT_EQ(h.count(), 0);
  // References stay live after reset; updates keep working.
  c.add(2);
  EXPECT_EQ(c.value(), 2);
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_TRUE(snap.counters.count("test.reset.counter"));
  EXPECT_TRUE(snap.gauges.count("test.reset.gauge"));
  EXPECT_TRUE(snap.timers.count("test.reset.timer"));
  EXPECT_TRUE(snap.histograms.count("test.reset.hist"));
}

TEST(Registry, CountersAreThreadSafe) {
  auto& c = Registry::instance().counter("test.threads.counter");
  c.reset();
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&c] {
      for (int j = 0; j < 10000; ++j) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), 40000);
}

TEST(Histogram, BucketBoundaries) {
  Histogram h(1.0, 2.0);
  // Bucket 0 catches [0, least) plus anything unrepresentable.
  EXPECT_EQ(h.bucket_index(0.0), 0);
  EXPECT_EQ(h.bucket_index(0.999), 0);
  EXPECT_EQ(h.bucket_index(-3.0), 0);
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::quiet_NaN()), 0);
  // Bucket i >= 1 covers [least * growth^(i-1), least * growth^i).
  EXPECT_EQ(h.bucket_index(1.0), 1);
  EXPECT_EQ(h.bucket_index(1.5), 1);
  EXPECT_EQ(h.bucket_index(2.5), 2);
  EXPECT_EQ(h.bucket_index(5.0), 3);
  EXPECT_DOUBLE_EQ(h.bucket_lower(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(3), 4.0);
  // Values beyond the last bucket clamp instead of overflowing.
  EXPECT_EQ(h.bucket_index(1e300), Histogram::kNumBuckets - 1);
  // Recording lands in the computed bucket.
  h.record(1.5);
  h.record(2.5);
  h.record(2.6);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 2);
}

// The precomputed boundary table behind bucket_index must reproduce the
// original `1 + floor(log(v/least) / log(growth))` mapping bit-for-bit —
// the simulator's golden latency percentiles ride on the exact bucket of
// every sample. Sweeps every geometry the codebase registers, hammering
// the flip-point neighborhoods where a log-based table would be off by
// one ulp. Restricted to finite v/least: the old formula's behavior on an
// overflowing quotient was UB (log(inf)), not part of the contract —
// the table saturates those into the top bucket as documented.
TEST(Histogram, BucketIndexMatchesLogFormula) {
  const std::pair<double, double> geometries[] = {
      {1e-9, 2.0},  // default
      {1.0, 1.2},   // sim latency
      {1e-3, 1.1},  // injection/accepted rates
      {1e-3, 1.3},  // buffer occupancy
  };
  std::mt19937_64 rng(20260808);
  for (const auto& [least, growth] : geometries) {
    const Histogram h(least, growth);
    const double inv_log_growth = 1.0 / std::log(growth);
    const auto reference = [&](double v) {
      if (!(v >= least)) return 0;
      const int idx = 1 + static_cast<int>(std::floor(std::log(v / least) * inv_log_growth));
      return std::clamp(idx, 1, Histogram::kNumBuckets - 1);
    };
    const auto check = [&](double v) {
      if (!std::isfinite(v / least)) return;
      ASSERT_EQ(h.bucket_index(v), reference(v))
          << "least=" << least << " growth=" << growth << " v=" << v;
    };

    // Every flip point, plus its ulp neighborhood on both sides.
    for (int k = 0; k < Histogram::kNumBuckets; ++k) {
      double b = h.bucket_lower(k);
      check(b);
      double lo = b, hi = b;
      for (int step = 0; step < 4; ++step) {
        lo = std::nextafter(lo, 0.0);
        hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
        check(lo);
        check(hi);
      }
    }
    // Log-uniform fill across (and beyond) the bucket range, zero, sub-least
    // values and the saturating far tail.
    std::uniform_real_distribution<double> exp_dist(-2.0, 100.0);
    for (int i = 0; i < 200000; ++i) {
      check(least * std::pow(growth, exp_dist(rng)));
    }
    check(0.0);
    check(least * 0.5);
    check(std::numeric_limits<double>::quiet_NaN());
    check(least * 1e30);
  }
}

TEST(Histogram, SumMeanMinMaxExact) {
  Histogram h(1.0, 2.0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  for (const double v : {3.0, 9.0, 6.0}) h.record(v);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
  EXPECT_DOUBLE_EQ(h.mean(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
}

TEST(Histogram, PercentileSingleBucketClampsToObservedValue) {
  Histogram h(1.0, 2.0);
  for (int i = 0; i < 100; ++i) h.record(1.5);
  // All mass in one bucket: interpolation is clamped to [min, max] = {1.5}.
  EXPECT_DOUBLE_EQ(h.percentile(0.01), 1.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 1.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 1.5);
}

TEST(Histogram, PercentilesMonotoneAndWithinBucketError) {
  Histogram h(1.0, 1.25);
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
  EXPECT_GE(p50, h.min());
  // Relative error of a log-bucketed percentile is bounded by the growth.
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.25);
  EXPECT_NEAR(p95, 950.0, 950.0 * 0.25);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.25);
}

// A tally of samples kept the way a simulator shard keeps latencies:
// plain bucket counts in a histogram's geometry plus count/sum/min/max.
struct Tally {
  std::vector<std::int64_t> buckets = std::vector<std::int64_t>(Histogram::kNumBuckets, 0);
  std::int64_t n = 0;
  double sum = 0.0, min = 0.0, max = 0.0;

  void add(const Histogram& geometry, double v) {
    ++buckets[geometry.bucket_index(v)];
    min = n == 0 ? v : std::min(min, v);
    max = n == 0 ? v : std::max(max, v);
    sum += v;
    ++n;
  }
  void merge_into(Histogram& h) const { h.merge(buckets.data(), n, sum, min, max); }
};

void expect_same_histogram(const Histogram& a, const Histogram& b, const char* what) {
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(a.bucket_count(i), b.bucket_count(i)) << what << " bucket " << i;
  }
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  for (const double p : {0.50, 0.95, 0.99}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << what << " p" << p;
  }
}

// Integer-valued samples (latencies in cycles), so the merged one-step sum
// and the per-sample running sum are both exact.
std::vector<double> latency_samples(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<double> v;
  for (int i = 0; i < count; ++i) v.push_back(static_cast<double>(rng.below(i % 50 == 0 ? 5000 : 60)));
  return v;
}

TEST(HistogramMerge, MatchesPerSampleRecord) {
  Histogram recorded(1.0, 1.2), merged(1.0, 1.2);
  Tally tally;
  for (const double v : latency_samples(1, 20000)) {
    recorded.record(v);
    tally.add(merged, v);
  }
  tally.merge_into(merged);
  expect_same_histogram(recorded, merged, "fresh");
}

TEST(HistogramMerge, EmptyMergeIsANoOp) {
  Histogram h(1.0, 1.2), untouched(1.0, 1.2);
  const Tally empty;
  empty.merge_into(h);
  expect_same_histogram(h, untouched, "empty into empty");
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  for (const double v : {4.0, 17.0, 2.0}) {
    h.record(v);
    untouched.record(v);
  }
  empty.merge_into(h);
  expect_same_histogram(h, untouched, "empty into non-empty");
}

TEST(HistogramMerge, MergeIntoNonEmptyMatchesRecord) {
  Histogram recorded(1.0, 1.2), merged(1.0, 1.2);
  for (const double v : latency_samples(2, 3000)) {
    recorded.record(v);
    merged.record(v);
  }
  // Two shard tallies, one of which extends the range on both ends.
  Tally a, b;
  for (const double v : latency_samples(3, 5000)) {
    recorded.record(v);
    a.add(merged, v);
  }
  for (const double v : {0.0, 9000.0, 31.0}) {
    recorded.record(v);
    b.add(merged, v);
  }
  a.merge_into(merged);
  b.merge_into(merged);
  expect_same_histogram(recorded, merged, "non-empty");
}

// The TSan job runs this case: two threads merge shard tallies into one
// registry histogram (as concurrent simulator runs do at run end).
TEST(HistogramMerge, ConcurrentMergesAreRaceFree) {
  Histogram& h = Registry::instance().histogram("test.conc.merge", 1.0, 1.2);
  Histogram expected(1.0, 1.2);
  constexpr int kThreads = 2;
  constexpr int kTallies = 200;
  std::vector<std::vector<Tally>> tallies(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    for (int i = 0; i < kTallies; ++i) {
      Tally t;
      for (const double v : latency_samples(100 * w + i, 50)) {
        t.add(h, v);
        expected.record(v);
      }
      tallies[w].push_back(t);
    }
  }
  std::vector<std::thread> mergers;
  for (int w = 0; w < kThreads; ++w) {
    mergers.emplace_back([&, w] {
      for (const Tally& t : tallies[w]) t.merge_into(h);
    });
  }
  for (auto& th : mergers) th.join();
  expect_same_histogram(expected, h, "concurrent");
}

// The simulator tallies latency per shard and merges once per run into
// sim.packet_latency: a threads=4 run must add exactly what a threads=1 run
// adds (buckets, count, sum, min, max, percentiles), and the registry's
// percentiles must equal the run's own.
TEST(HistogramMerge, SimulatorLatencyIsThreadInvariant) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  Histogram& global = Registry::instance().histogram("sim.packet_latency", 1.0, 1.2);
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 1500;
  cfg.drain_cycles = 2000;
  Histogram after_serial(1.0, 1.2);
  SimStats stats[2];
  for (const int threads : {1, 4}) {
    global.reset();
    cfg.threads = threads;
    cfg.shards = threads;
    stats[threads == 4] = simulate(dor, 0.5, {}, cfg);
    ASSERT_GT(global.count(), 0) << "threads=" << threads;
    EXPECT_EQ(global.percentile(0.50), stats[threads == 4].p50_latency);
    EXPECT_EQ(global.percentile(0.99), stats[threads == 4].p99_latency);
    EXPECT_EQ(global.max(), stats[threads == 4].max_latency);
    if (threads == 1) {
      std::vector<std::int64_t> buckets(Histogram::kNumBuckets);
      for (int i = 0; i < Histogram::kNumBuckets; ++i) buckets[i] = global.bucket_count(i);
      after_serial.merge(buckets.data(), global.count(), global.sum(), global.min(), global.max());
    }
  }
  expect_same_histogram(after_serial, global, "threads=4 vs threads=1");
  EXPECT_EQ(stats[0].avg_latency, stats[1].avg_latency);
}

TEST(ScopedTimerTest, EnabledSpansAccumulate) {
  Timer t;
  {
    ScopedTimer span(t, /*enabled=*/true);
  }
  EXPECT_EQ(t.count(), 1);
  EXPECT_GE(t.wall_seconds(), 0.0);
  // stop() is idempotent: a second stop records nothing.
  ScopedTimer span(t, /*enabled=*/true);
  span.stop();
  span.stop();
  EXPECT_EQ(t.count(), 2);
}

TEST(ScopedTimerTest, DisabledSpansRecordNothing) {
  Timer t;
  {
    ScopedTimer span(t, /*enabled=*/false);
  }
  EXPECT_EQ(t.count(), 0);
  EXPECT_DOUBLE_EQ(t.wall_seconds(), 0.0);
}

// ---- JSON ---------------------------------------------------------------

TEST(JsonTest, ScalarsAndEscapes) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7L).dump(), "-7");
  EXPECT_EQ(Json("plain").dump(), "\"plain\"");
  EXPECT_EQ(Json("a\"b\\c\nd\te").dump(), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(JsonTest, DoublesRoundTripAndNonFiniteIsNull) {
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(0.0).dump(), "0");
  for (const double v : {0.1, 1.0 / 3.0, 6.02e23, 1e-300}) {
    const std::string s = Json(v).dump();
    EXPECT_DOUBLE_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(JsonTest, ObjectsKeepInsertionOrder) {
  auto obj = Json::object();
  obj.set("zebra", 1).set("alpha", 2).set("mid", Json::array());
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":[]}");
  auto arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json());
  EXPECT_EQ(arr.dump(), "[1,\"two\",null]");
}

TEST(JsonTest, SnapshotSerializationIsStable) {
  Registry::instance().counter("test.snapjson.b").add(2);
  Registry::instance().counter("test.snapjson.a").add(1);
  Registry::instance().gauge("test.snapjson.g").set(1.5);
  Registry::instance().histogram("test.snapjson.h").record(0.5);
  const std::string once = snapshot_json().dump();
  const std::string twice = snapshot_json().dump();
  EXPECT_EQ(once, twice);  // stable keys and formatting
  // Snapshot maps are sorted, so a's entry precedes b's.
  const auto pos_a = once.find("\"test.snapjson.a\"");
  const auto pos_b = once.find("\"test.snapjson.b\"");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  // Top-level sections are always present.
  for (const char* key : {"\"counters\"", "\"gauges\"", "\"timers\"", "\"histograms\""}) {
    EXPECT_NE(once.find(key), std::string::npos) << key;
  }
  // Histogram entries expose the full summary.
  for (const char* key : {"\"count\"", "\"sum\"", "\"min\"", "\"max\"", "\"p50\"", "\"p95\"",
                          "\"p99\""}) {
    EXPECT_NE(once.find(key), std::string::npos) << key;
  }
}

TEST(EventSinkTest, WritesOneParseableRecordPerLine) {
  std::ostringstream os;
  EventSink sink(os);
  ASSERT_TRUE(sink.ok());
  auto rec = Json::object();
  rec.set("bench", "unit").set("value", 1.25);
  sink.write(rec);
  sink.write(rec);
  EXPECT_EQ(sink.records_written(), 2);

  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
}

// Serialize -> parse must preserve every double bit-exactly (including the
// sign of -0.0, denormals, and the extremes of the exponent range) — the
// report layer re-reads bench records and gates golden values on them.
TEST(JsonTest, DoubleSerializationRoundTripsBitExactly) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  std::vector<double> cases = {0.0,
                               -0.0,
                               1.0,
                               -1.0,
                               0.1,
                               -0.1,
                               1.0 / 3.0,
                               6.02214076e23,
                               -6.02214076e23,
                               1e-300,
                               -1e-300,
                               123456789.123456789,
                               9007199254740993.0,  // 2^53 + 1 rounds to 2^53
                               std::numeric_limits<double>::max(),
                               std::numeric_limits<double>::lowest(),
                               std::numeric_limits<double>::min(),
                               denorm_min,
                               -denorm_min};
  // Geometric sweep from the smallest denormal to overflow: crosses the
  // denormal/normal boundary and every binade in between.
  for (double v = denorm_min; std::isfinite(v); v *= 3.7) cases.push_back(v);

  for (const double v : cases) {
    const std::string s = Json(v).dump();
    Json parsed;
    std::string error;
    ASSERT_TRUE(obs::parse_json(s, &parsed, &error)) << s << ": " << error;
    ASSERT_TRUE(parsed.is_number()) << s;
    const double back = parsed.as_number();
    std::uint64_t v_bits = 0, back_bits = 0;
    std::memcpy(&v_bits, &v, sizeof v_bits);
    std::memcpy(&back_bits, &back, sizeof back_bits);
    // Integral-valued doubles may come back as Kind::Int (e.g. "1"); the
    // value bits after as_number() must still match exactly.
    EXPECT_EQ(back_bits, v_bits) << v << " dumped as " << s << " parsed back as " << back;
  }
}

// Pin the documented log-bucket quantile bias: any percentile estimate and
// the true quantile share a bucket [lo, lo*growth), so the relative error
// is < growth - 1 (see the Histogram doc comment in registry.hpp).
TEST(Histogram, QuantileRelativeErrorBounded) {
  for (const double growth : {1.1, 1.5, 2.0, 3.0}) {
    Histogram h(1e-3, growth);
    // Deterministic log-uniform values (plain LCG so the test is
    // reproducible everywhere), spanning the histogram's bucketed range:
    // past the linear bucket 0 and below the top-bucket saturation point,
    // which shrinks as growth does (1e-3 * 1.1^95 is only ~8.6).
    const double range_lo = 1e-3 * growth;
    const double range_hi = 1e-3 * std::pow(growth, Histogram::kNumBuckets - 2);
    std::vector<double> vals;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20000; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const double u = static_cast<double>(state >> 11) * (1.0 / 9007199254740992.0);
      vals.push_back(std::exp(std::log(range_lo) + u * (std::log(range_hi) - std::log(range_lo))));
    }
    for (const double v : vals) h.record(v);
    std::sort(vals.begin(), vals.end());

    for (const double p : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99}) {
      const double est = h.percentile(p);
      // The order statistic the histogram targets: rank p * count, i.e. the
      // ceil(rank)-th smallest sample (1-based).
      const double rank = p * static_cast<double>(vals.size());
      const auto idx = static_cast<std::size_t>(std::ceil(rank)) - 1;
      const double exact = vals[std::min(idx, vals.size() - 1)];
      const double rel_err = std::abs(est - exact) / exact;
      EXPECT_LT(rel_err, growth - 1.0 + 1e-12)
          << "growth " << growth << " p " << p << " est " << est << " exact " << exact;
    }
  }
}

// ---- thread-safety (exercised under TSan in CI) -------------------------

TEST(EventSinkTest, ConcurrentWritersAndProbesAreRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::ostringstream os;
  EventSink sink(os);

  std::atomic<bool> done{false};
  // A monitor thread hammers the read-side API (ok(), records_written())
  // while writers stream records — the exact pattern JsonOutput uses when a
  // sweep runs on the ThreadPool.
  std::thread monitor([&] {
    std::int64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(sink.ok());
      const std::int64_t n = sink.records_written();
      EXPECT_GE(n, last);  // monotone
      last = n;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto rec = Json::object();
        rec.set("thread", t).set("i", i);
        sink.write(rec);
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_EQ(sink.records_written(), kThreads * kPerThread);
  // Writes are serialized: every line is a complete record.
  std::istringstream is(os.str());
  std::string line;
  int lines = 0;
  std::string error;
  while (std::getline(is, line)) {
    ++lines;
    Json rec;
    ASSERT_TRUE(obs::parse_json(line, &rec, &error)) << error;
    ASSERT_TRUE(rec.find("thread") != nullptr);
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
}

TEST(Registry, SnapshotWithConcurrentWritersIsRaceFree) {
  auto& c = Registry::instance().counter("test.conc.counter");
  auto& g = Registry::instance().gauge("test.conc.gauge");
  auto& t = Registry::instance().timer("test.conc.timer");
  auto& h = Registry::instance().histogram("test.conc.hist", 1e-3, 2.0);
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;

  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        g.set(static_cast<double>(i));
        t.add(10, 5);
        h.record(0.5 + static_cast<double>(i % 7));
      }
    });
  }
  // Concurrent registration of new metrics plus repeated full snapshots —
  // the registry's two lock domains (name map, metric values) together.
  std::thread registrar([] {
    for (int i = 0; i < 200; ++i) {
      Registry::instance().counter("test.conc.reg." + std::to_string(i)).add(1);
    }
  });
  std::int64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const Snapshot snap = Registry::instance().snapshot();
    const auto it = snap.counters.find("test.conc.counter");
    ASSERT_NE(it, snap.counters.end());
    EXPECT_GE(it->second, last);  // counter reads are monotone
    last = it->second;
  }
  for (auto& th : writers) th.join();
  registrar.join();

  const Snapshot fin = Registry::instance().snapshot();
  EXPECT_EQ(fin.counters.at("test.conc.counter"), kThreads * kIters);
  EXPECT_EQ(fin.timers.at("test.conc.timer").count, kThreads * kIters);
  EXPECT_EQ(fin.histograms.at("test.conc.hist").count, kThreads * kIters);
  EXPECT_EQ(fin.counters.at("test.conc.reg.199"), 1);
}

}  // namespace
}  // namespace tcr::obs
