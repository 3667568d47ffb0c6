// tcr::telemetry: heartbeat stream round-trips (schema, sequencing, phase
// from the open span, final beat), sink independence from the tracer, the
// incremental StreamReader (tailing across appends, torn-tail
// fuzz over every truncation length, hard corruption diagnostics), the
// tcr-top RunState/anomaly layer, and the determinism contract — a sweep
// with --heartbeat on must produce bitwise-identical points to one without.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "tcr/core/tradeoff.hpp"
#include "tcr/graph/torus.hpp"
#include "tcr/guard/guard.hpp"
#include "tcr/guard/journal.hpp"
#include "tcr/obs/json.hpp"
#include "tcr/telemetry/inspect.hpp"
#include "tcr/telemetry/stream.hpp"
#include "tcr/telemetry/telemetry.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/util/thread_pool.hpp"

namespace tcr {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "telemetry_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
}

/// Every telemetry test stops any session it started; a stray active
/// session would leak into later tests (one session per process).
struct SessionCleanup {
  ~SessionCleanup() { telemetry::stop(); }
};

// ---- session round-trip --------------------------------------------------

TEST(Telemetry, StartStopRoundTripWritesMetaBeatsAndFinal) {
  SessionCleanup cleanup;
  const std::string path = temp_path("roundtrip.hb");
  std::remove(path.c_str());

  telemetry::HeartbeatConfig cfg;
  cfg.path = path;
  cfg.interval_seconds = 0.0;  // every poll emits
  cfg.bench = "unit_bench";
  std::string error;
  ASSERT_TRUE(telemetry::start(cfg, &error)) << error;
  EXPECT_TRUE(telemetry::active());

  // A second session must be refused while one is active.
  EXPECT_FALSE(telemetry::start(cfg, &error));

  {
    // The phase is the innermost open span on the emitting thread.
    trace::Span unit("unit");
    telemetry::heartbeat_now();
    telemetry::heartbeat_now();
  }
  // Outside every span: the final beat repeats the previous phase.
  telemetry::stop();
  EXPECT_FALSE(telemetry::active());

  const guard::JournalContents contents = guard::read_journal(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  EXPECT_FALSE(contents.truncated_tail);
  // meta + 2 explicit beats + the final beat from stop().
  ASSERT_EQ(contents.records.size(), 4u);

  obs::Json meta;
  ASSERT_TRUE(obs::parse_json(contents.records[0], &meta, &error)) << error;
  EXPECT_EQ(meta.find("kind")->as_string(), "meta");
  EXPECT_EQ(meta.find("schema")->as_string(), "tcr-heartbeat-v1");
  EXPECT_EQ(meta.find("bench")->as_string(), "unit_bench");
  EXPECT_GT(meta.find("pid")->as_int(), 0);

  obs::Json beat;
  ASSERT_TRUE(obs::parse_json(contents.records[1], &beat, &error)) << error;
  EXPECT_EQ(beat.find("kind")->as_string(), "heartbeat");
  EXPECT_EQ(beat.find("phase")->as_string(), "unit");

  obs::Json last;
  ASSERT_TRUE(obs::parse_json(contents.records.back(), &last, &error)) << error;
  EXPECT_EQ(last.find("kind")->as_string(), "heartbeat");
  ASSERT_NE(last.find("final"), nullptr);
  EXPECT_TRUE(last.find("final")->as_bool());
  EXPECT_EQ(last.find("phase")->as_string(), "unit");

  // Sequence numbers increase monotonically across beats.
  std::int64_t prev_seq = -1;
  for (std::size_t r = 1; r < contents.records.size(); ++r) {
    obs::Json rec;
    ASSERT_TRUE(obs::parse_json(contents.records[r], &rec, &error)) << error;
    EXPECT_GT(rec.find("seq")->as_int(), prev_seq) << "record " << r;
    prev_seq = rec.find("seq")->as_int();
  }
}

TEST(Telemetry, DisabledEntryPointsAreNoOps) {
  ASSERT_FALSE(telemetry::active());
  // None of these may crash or create files while disabled.
  telemetry::poll();
  telemetry::heartbeat_now();
  telemetry::stop();
}

// Each sink reads the spine only under its own bit: a heartbeat-only
// session tracks counters but records no trace events, and a tracer-only
// session records events but fills no track table.
TEST(Telemetry, HeartbeatAndTraceSinksAreIndependent) {
  SessionCleanup cleanup;
  const std::string path = temp_path("sinks.hb");
  std::remove(path.c_str());
  telemetry::HeartbeatConfig cfg;
  cfg.path = path;
  cfg.interval_seconds = 0.0;
  std::string error;

  trace::Tracer::instance().clear();
  ASSERT_TRUE(telemetry::start(cfg, &error)) << error;
  {
    trace::Span span("unit.span");
    trace::counter("unit.track", 7.0);
    EXPECT_EQ(trace::current_span_name(), "unit.span");
  }
  EXPECT_TRUE(trace::current_span_name().empty());
  telemetry::stop();
  EXPECT_TRUE(trace::Tracer::instance().events().empty());
  const auto tracked = telemetry::tracks();
  ASSERT_EQ(tracked.count("unit.track"), 1u);
  EXPECT_EQ(tracked.at("unit.track"), 7.0);

  // A new session starts from an empty table; a trace-only run adds nothing.
  ASSERT_TRUE(telemetry::start(cfg, &error)) << error;
  telemetry::stop();
  EXPECT_TRUE(telemetry::tracks().empty());
  trace::Tracer::instance().start();
  {
    trace::Span span("unit.span");
    trace::counter("unit.track", 8.0);
  }
  trace::Tracer::instance().stop();
  EXPECT_EQ(trace::Tracer::instance().events().size(), 2u);
  EXPECT_TRUE(telemetry::tracks().empty());
  trace::Tracer::instance().clear();
}

TEST(Telemetry, StartRequiresAPath) {
  telemetry::HeartbeatConfig cfg;
  std::string error;
  EXPECT_FALSE(telemetry::start(cfg, &error));
  EXPECT_FALSE(error.empty());
}

// ---- incremental stream reader ------------------------------------------

TEST(TelemetryStream, TailsRecordsAcrossAppends) {
  const std::string path = temp_path("tail.hb");
  std::remove(path.c_str());

  telemetry::StreamReader reader(path);
  std::vector<obs::Json> out;
  std::string error;

  // Nothing yet: not an error, not opened.
  ASSERT_TRUE(reader.poll(&out, &error)) << error;
  EXPECT_FALSE(reader.opened());
  EXPECT_TRUE(out.empty());

  guard::JournalWriter writer;
  ASSERT_TRUE(writer.open(path, &error)) << error;
  ASSERT_TRUE(writer.append("{\"kind\":\"meta\",\"bench\":\"t\"}"));

  ASSERT_TRUE(reader.poll(&out, &error)) << error;
  EXPECT_TRUE(reader.opened());
  EXPECT_FALSE(reader.truncated_tail());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].find("kind")->as_string(), "meta");

  ASSERT_TRUE(writer.append("{\"kind\":\"heartbeat\",\"seq\":1}"));
  ASSERT_TRUE(writer.append("{\"kind\":\"heartbeat\",\"seq\":2}"));

  // Only the newly-appended records come back on the next poll.
  out.clear();
  ASSERT_TRUE(reader.poll(&out, &error)) << error;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].find("seq")->as_int(), 1);
  EXPECT_EQ(out[1].find("seq")->as_int(), 2);
  EXPECT_EQ(reader.records_read(), 3);
}

// The torn-tail fuzz (satellite): for EVERY truncation length of a valid
// stream, the reader must either report the exact record prefix with the
// tail flagged, or (shorter than the magic) report nothing — never a hard
// error, never a wrong record. This is the journal corruption matrix
// applied to the telemetry reader.
TEST(TelemetryStream, TornTailFuzzEveryTruncationLength) {
  const std::string path = temp_path("fuzz_src.hb");
  std::remove(path.c_str());
  std::string error;
  std::vector<std::string> payloads = {
      "{\"kind\":\"meta\",\"bench\":\"fuzz\",\"pid\":42}",
      "{\"kind\":\"heartbeat\",\"seq\":0,\"uptime_ms\":10}",
      "{\"kind\":\"event\",\"seq\":1,\"severity\":\"info\",\"message\":\"hi\"}",
      "{\"kind\":\"heartbeat\",\"seq\":2,\"uptime_ms\":30,\"final\":true}",
  };
  {
    guard::JournalWriter writer;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    for (const std::string& p : payloads) ASSERT_TRUE(writer.append(p));
  }
  const std::string full = slurp(path);
  ASSERT_GT(full.size(), guard::kJournalMagicSize);

  // Complete-record boundaries (file offsets) for the prefix expectation.
  std::vector<std::size_t> boundaries = {guard::kJournalMagicSize};
  for (const std::string& p : payloads) {
    boundaries.push_back(boundaries.back() + guard::kJournalHeaderSize + p.size());
  }

  const std::string cut_path = temp_path("fuzz_cut.hb");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    spit(cut_path, full.substr(0, len));
    telemetry::StreamReader reader(cut_path);
    std::vector<obs::Json> out;
    ASSERT_TRUE(reader.poll(&out, &error)) << "len=" << len << ": " << error;

    // How many records are complete within `len` bytes?
    std::size_t want = 0;
    while (want + 1 < boundaries.size() && boundaries[want + 1] <= len) ++want;
    if (len < guard::kJournalMagicSize) {
      EXPECT_FALSE(reader.opened()) << "len=" << len;
      EXPECT_TRUE(out.empty()) << "len=" << len;
    } else {
      ASSERT_EQ(out.size(), want) << "len=" << len;
      for (std::size_t r = 0; r < want; ++r) {
        obs::Json ref;
        ASSERT_TRUE(obs::parse_json(payloads[r], &ref, &error)) << error;
        EXPECT_EQ(out[r].dump(), ref.dump()) << "len=" << len << " record " << r;
      }
    }
    // The tail is flagged exactly when bytes extend past the last boundary.
    const bool at_boundary = len == 0 || len == boundaries[want];
    EXPECT_EQ(reader.truncated_tail(), !at_boundary) << "len=" << len;
  }
}

TEST(TelemetryStream, MidStreamCorruptionIsAHardError) {
  const std::string path = temp_path("corrupt.hb");
  std::remove(path.c_str());
  std::string error;
  {
    guard::JournalWriter writer;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    ASSERT_TRUE(writer.append("{\"kind\":\"meta\"}"));
    ASSERT_TRUE(writer.append("{\"kind\":\"heartbeat\",\"seq\":0}"));
  }
  std::string bytes = slurp(path);
  // Flip one payload byte of the FIRST record: CRC mismatch with bytes
  // after it — the middle of the stream is corrupt, not a torn tail.
  bytes[guard::kJournalMagicSize + guard::kJournalHeaderSize + 2] ^= 0x20;
  spit(path, bytes);

  telemetry::StreamReader reader(path);
  std::vector<obs::Json> out;
  EXPECT_FALSE(reader.poll(&out, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST(TelemetryStream, BadMagicIsAHardError) {
  const std::string path = temp_path("badmagic.hb");
  spit(path, "NOTAJRNLxxxxxxxxxxxxxxxx");
  telemetry::StreamReader reader(path);
  std::vector<obs::Json> out;
  std::string error;
  EXPECT_FALSE(reader.poll(&out, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(TelemetryStream, UnparsablePayloadIsAHardError) {
  const std::string path = temp_path("notjson.hb");
  std::remove(path.c_str());
  std::string error;
  {
    guard::JournalWriter writer;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    ASSERT_TRUE(writer.append("this is not json"));
    ASSERT_TRUE(writer.append("{\"kind\":\"heartbeat\"}"));
  }
  telemetry::StreamReader reader(path);
  std::vector<obs::Json> out;
  EXPECT_FALSE(reader.poll(&out, &error));
  EXPECT_NE(error.find("not JSON"), std::string::npos) << error;
}

// ---- determinism: heartbeat on vs off ------------------------------------

void expect_same_points(const std::vector<TradeoffPoint>& a,
                        const std::vector<TradeoffPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise comparison: NaN-safe via memcmp on the doubles.
    EXPECT_EQ(std::memcmp(&a[i].capacity_fraction, &b[i].capacity_fraction,
                          sizeof(double)),
              0)
        << "point " << i;
    EXPECT_EQ(a[i].locality, b[i].locality) << "point " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "point " << i;
    EXPECT_EQ(a[i].warm_start, b[i].warm_start) << "point " << i;
    EXPECT_EQ(a[i].iterations, b[i].iterations) << "point " << i;
    EXPECT_EQ(a[i].provenance, b[i].provenance) << "point " << i;
  }
}

// The tentpole's determinism contract: a sweep run under an active
// heartbeat session (interval 0, so every cooperative site emits — maximal
// perturbation pressure) must produce bitwise-identical points to the same
// sweep with telemetry disabled. Referenced from telemetry.hpp.
//
// The pooled case runs two warm chains on a two-thread pool, so sweep.done
// is emitted from both workers: the final beat must still report every
// point done.
TEST(Telemetry, SweepHeartbeatBitwiseDeterministic) {
  SessionCleanup cleanup;
  const Torus t(4);
  const std::vector<double> grid = locality_grid(1.0, 2.0, 4);
  const int points = static_cast<int>(grid.size());
  ThreadPool pool(2);
  SweepConfig pooled;
  pooled.chains = 2;

  for (const bool on_pool : {false, true}) {
    SCOPED_TRACE(on_pool ? "pooled" : "serial");
    ThreadPool* p = on_pool ? &pool : nullptr;
    const SweepConfig sweep = on_pool ? pooled : SweepConfig{};
    const std::vector<TradeoffPoint> off = worst_case_tradeoff(t, grid, {}, p, sweep);

    const std::string path = temp_path(on_pool ? "sweep_pooled.hb" : "sweep.hb");
    std::remove(path.c_str());
    telemetry::HeartbeatConfig cfg;
    cfg.path = path;
    cfg.interval_seconds = 0.0;
    cfg.bench = "determinism";
    std::string error;
    ASSERT_TRUE(telemetry::start(cfg, &error)) << error;
    const std::vector<TradeoffPoint> on = worst_case_tradeoff(t, grid, {}, p, sweep);
    telemetry::stop();

    expect_same_points(off, on);

    // And the stream it wrote is a readable run: progress reaches
    // points/points with solver samples along the way.
    telemetry::StreamReader reader(path);
    std::vector<obs::Json> records;
    ASSERT_TRUE(reader.poll(&records, &error)) << error;
    EXPECT_FALSE(reader.truncated_tail());
    telemetry::RunState state;
    for (const obs::Json& rec : records) ASSERT_TRUE(state.apply(rec, &error)) << error;
    ASSERT_TRUE(state.finished);
    ASSERT_NE(state.last_beat(), nullptr);
    EXPECT_TRUE(state.last_beat()->has_progress);
    EXPECT_EQ(state.last_beat()->done, points);
    EXPECT_EQ(state.last_beat()->total, points);
    EXPECT_GT(state.cumulative_iterations(state.beats.size() - 1), 0);
  }
}

// ---- RunState / anomaly layer -------------------------------------------

obs::Json parse(const std::string& text) {
  obs::Json v;
  std::string error;
  EXPECT_TRUE(obs::parse_json(text, &v, &error)) << error;
  return v;
}

obs::Json make_beat(long seq, double uptime_s, std::int64_t iters, std::int64_t rss_kb) {
  obs::Json b = obs::Json::object();
  b.set("kind", "heartbeat");
  b.set("seq", seq);
  b.set("uptime_ms", static_cast<std::int64_t>(uptime_s * 1000));
  b.set("phase", "unit");
  obs::Json g = obs::Json::object();
  g.set("cancelled", false);
  g.set("iterations", iters);
  g.set("rss_kb", rss_kb);
  b.set("guard", std::move(g));
  return b;
}

TEST(TelemetryInspect, RunStateFoldsMetaBeatsAndEvents) {
  telemetry::RunState state;
  std::string error;
  ASSERT_TRUE(state.apply(
      parse("{\"kind\":\"meta\",\"schema\":\"tcr-heartbeat-v1\",\"bench\":\"b\","
            "\"pid\":7,\"interval_seconds\":0.5}"),
      &error))
      << error;
  ASSERT_TRUE(state.apply(
      parse("{\"kind\":\"heartbeat\",\"seq\":0,\"uptime_ms\":1000,\"phase\":\"sweep\","
            "\"progress\":{\"done\":2,\"total\":8,\"warm_adopted\":1}}"),
      &error))
      << error;
  // Unknown kinds are ignored (forward compatibility), not errors; so is
  // the "event" record that older writers emitted.
  ASSERT_TRUE(state.apply(
      parse("{\"kind\":\"event\",\"seq\":1,\"uptime_ms\":1500,\"severity\":\"warn\","
            "\"message\":\"m\"}"),
      &error))
      << error;
  ASSERT_TRUE(state.apply(parse("{\"kind\":\"novel\",\"x\":1}"), &error)) << error;

  EXPECT_TRUE(state.has_meta);
  EXPECT_EQ(state.bench, "b");
  EXPECT_EQ(state.pid, 7);
  ASSERT_EQ(state.beats.size(), 1u);
  EXPECT_FALSE(state.finished);
  EXPECT_TRUE(state.beats[0].has_progress);
  EXPECT_EQ(state.beats[0].done, 2);
  // ETA from point throughput: 2 points in 1 s -> 6 remaining at 2/s = 3 s.
  EXPECT_NEAR(state.eta_seconds(), 3.0, 1e-12);

  EXPECT_FALSE(state.apply(parse("[1,2,3]"), &error));
}

TEST(TelemetryInspect, IterationRateUsesGuardTallyOrCounterDeltas) {
  telemetry::RunState with_token;
  std::string error;
  ASSERT_TRUE(with_token.apply(make_beat(0, 1.0, 1000, 100), &error)) << error;
  ASSERT_TRUE(with_token.apply(make_beat(1, 2.0, 3000, 100), &error)) << error;
  EXPECT_NEAR(with_token.iterations_per_sec(), 2000.0, 1e-9);

  // Without a token the obs counter deltas carry the rate instead.
  telemetry::RunState with_deltas;
  ASSERT_TRUE(with_deltas.apply(
      parse("{\"kind\":\"heartbeat\",\"seq\":0,\"uptime_ms\":1000,"
            "\"counters\":{\"lp.simplex.iterations\":500}}"),
      &error))
      << error;
  ASSERT_TRUE(with_deltas.apply(
      parse("{\"kind\":\"heartbeat\",\"seq\":1,\"uptime_ms\":3000,"
            "\"counters\":{\"lp.simplex.iterations\":700}}"),
      &error))
      << error;
  EXPECT_EQ(with_deltas.cumulative_iterations(1), 1200);
  EXPECT_NEAR(with_deltas.iterations_per_sec(), 350.0, 1e-9);
}

TEST(TelemetryInspect, DetectsIterationRateCollapse) {
  telemetry::RunState state;
  std::string error;
  // Steady 1000 iters/s for 7 beats, then one near-dead interval.
  for (long i = 0; i < 7; ++i) {
    ASSERT_TRUE(state.apply(make_beat(i, 1.0 * static_cast<double>(i),
                                      1000 * i, 1000),
                            &error))
        << error;
  }
  ASSERT_TRUE(state.apply(make_beat(7, 7.0, 6010, 1000), &error)) << error;

  const std::vector<telemetry::Anomaly> anomalies = telemetry::detect_anomalies(state);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "iteration_rate_collapse");
}

TEST(TelemetryInspect, DetectsRssGrowth) {
  telemetry::RunState state;
  std::string error;
  // 100 MB/s growth, far past the 64 MB/s default warning slope.
  for (long i = 0; i < 6; ++i) {
    ASSERT_TRUE(state.apply(make_beat(i, 1.0 * static_cast<double>(i), 1000 * i,
                                      102400 * i),
                            &error))
        << error;
  }
  const std::vector<telemetry::Anomaly> anomalies = telemetry::detect_anomalies(state);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "rss_growth");
}

obs::Json make_solver_beat(long seq, double uptime_s, long iters, double objective) {
  obs::Json b = make_beat(seq, uptime_s, 0, 1000);
  obs::Json s = obs::Json::object();
  s.set("iterations", static_cast<std::int64_t>(iters));
  s.set("objective", objective);
  b.set("solver", std::move(s));
  return b;
}

TEST(TelemetryInspect, DetectsConvergenceStallAndResetsOnNewSolve) {
  std::string error;
  // Iterations advance but the objective is flat: trace's stall criterion.
  telemetry::RunState stalled;
  ASSERT_TRUE(stalled.apply(make_solver_beat(0, 0.0, 100, 5.0), &error)) << error;
  for (long i = 1; i <= 4; ++i) {
    ASSERT_TRUE(stalled.apply(
        make_solver_beat(i, 0.5 * static_cast<double>(i), 100 + 50 * i, 5.0), &error))
        << error;
  }
  std::vector<telemetry::Anomaly> anomalies = telemetry::detect_anomalies(stalled);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "convergence_stall");

  // An iteration-count drop means a new solve started: the streak resets,
  // so three flat beats spread across two solves do not fire.
  telemetry::RunState reset;
  ASSERT_TRUE(reset.apply(make_solver_beat(0, 0.0, 100, 5.0), &error)) << error;
  ASSERT_TRUE(reset.apply(make_solver_beat(1, 0.5, 150, 5.0), &error)) << error;
  ASSERT_TRUE(reset.apply(make_solver_beat(2, 1.0, 200, 5.0), &error)) << error;
  ASSERT_TRUE(reset.apply(make_solver_beat(3, 1.5, 50, 5.0), &error)) << error;
  ASSERT_TRUE(reset.apply(make_solver_beat(4, 2.0, 90, 5.0), &error)) << error;
  EXPECT_TRUE(telemetry::detect_anomalies(reset).empty());

  // A genuinely improving objective never fires.
  telemetry::RunState improving;
  for (long i = 0; i <= 4; ++i) {
    ASSERT_TRUE(improving.apply(make_solver_beat(i, 0.5 * static_cast<double>(i),
                                                 100 + 50 * i,
                                                 5.0 + static_cast<double>(i)),
                                &error))
        << error;
  }
  EXPECT_TRUE(telemetry::detect_anomalies(improving).empty());
}

TEST(TelemetryInspect, RenderReportsTruncationAndFinish) {
  telemetry::RunState state;
  std::string error;
  ASSERT_TRUE(state.apply(parse("{\"kind\":\"meta\",\"bench\":\"b\",\"pid\":7}"),
                          &error))
      << error;
  ASSERT_TRUE(state.apply(make_beat(0, 1.0, 10, 500), &error)) << error;

  // The satellite surface: a crashed run's torn stream is called out.
  const std::string torn = telemetry::render_table(state, {}, /*truncated_tail=*/true);
  EXPECT_NE(torn.find("stream truncated (crash?)"), std::string::npos) << torn;
  const std::string live = telemetry::render_table(state, {}, /*truncated_tail=*/false);
  EXPECT_NE(live.find("[live]"), std::string::npos) << live;

  const obs::Json js = telemetry::state_json(state, {}, /*truncated_tail=*/true);
  EXPECT_TRUE(js.find("truncated_tail")->as_bool());
  EXPECT_EQ(js.find("bench")->as_string(), "b");
  EXPECT_EQ(js.find("beats")->as_int(), 1);
}

}  // namespace
}  // namespace tcr
