// tcr::perf unit tests: the sampler's graceful-degradation contract (forced
// rusage, auto backend, inert-when-off), the pure injected-slowdown scaling,
// allocation accounting through the linked tcr_alloc_hook, provenance
// fields, and the whole history store + regression gate behind tcr-perf
// (round-trip, run distillation, google-benchmark ingest, median-of-repeats
// noise robustness, machine-sensitivity skips, floors, threshold overrides).
//
// This binary links tcr_alloc_hook on purpose (tests/CMakeLists.txt), so
// operator new/delete feed the perf counters here — the fallback-path
// coverage ISSUE.md asks for runs in every environment because
// TCR_PERF_FORCE_RUSAGE's config equivalent is exercised directly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tcr/obs/json.hpp"
#include "tcr/perf/history.hpp"
#include "tcr/perf/perf.hpp"
#include "tcr/perf/provenance.hpp"
#include "tcr/report/schema.hpp"

namespace tcr::perf {
namespace {

namespace fs = std::filesystem;

/// Every test leaves the process-wide sampler off.
class PerfTest : public ::testing::Test {
 protected:
  void TearDown() override { stop(); }
};

/// Burn a little cpu so time deltas are observably positive.
double busy_work() {
  volatile double acc = 0.0;
  for (int i = 1; i < 200000; ++i) acc = acc + 1.0 / static_cast<double>(i);
  return acc;
}

TEST_F(PerfTest, SamplerInertWhenCollectionOff) {
  ASSERT_FALSE(collecting());
  PhaseSampler sampler;
  EXPECT_FALSE(sampler.active());
  busy_work();
  const Sample s = sampler.sample();
  EXPECT_EQ(s.source, "off");
  EXPECT_EQ(s.cpu_ns, 0);
  EXPECT_EQ(s.wall_ns, 0);
  EXPECT_EQ(s.alloc_count, 0);
}

TEST_F(PerfTest, ForcedRusageBackendProducesRusageRecords) {
  PerfConfig cfg;
  cfg.force_rusage = true;
  start(cfg);
  EXPECT_EQ(source(), "rusage");
  PhaseSampler sampler;
  busy_work();
  const Sample s = sampler.sample();
  EXPECT_EQ(s.source, "rusage");
  EXPECT_GT(s.wall_ns, 0);
  EXPECT_GE(s.cpu_ns, 0);
  EXPECT_GT(s.max_rss_kb, 0);
  // The rusage backend has no hardware counters, and says so.
  EXPECT_EQ(s.cycles, -1);
  EXPECT_EQ(s.instructions, -1);
  EXPECT_EQ(s.cache_misses, -1);
  EXPECT_EQ(s.branch_misses, -1);
}

// The auto backend must work wherever it runs: perf_event where the kernel
// grants counters, rusage where it refuses (containers, VMs without a vPMU)
// — never a crash, and Sample.source always names the backend that measured.
TEST_F(PerfTest, AutoBackendDegradesGracefully) {
  start();
  const std::string active = source();
  EXPECT_TRUE(active == "perf_event" || active == "rusage") << active;
  PhaseSampler sampler;
  busy_work();
  const Sample s = sampler.sample();
  EXPECT_EQ(s.source, active);
  EXPECT_GT(s.wall_ns, 0);
  if (active == "perf_event") {
    EXPECT_GE(s.cycles, 0);  // the cycles counter is what qualifies the backend
  } else {
    EXPECT_EQ(s.cycles, -1);
  }
}

TEST_F(PerfTest, StopTurnsSamplingOff) {
  start();
  stop();
  EXPECT_EQ(source(), "off");
  PhaseSampler sampler;
  EXPECT_FALSE(sampler.active());
}

TEST_F(PerfTest, AllocHookCountsThroughSampler) {
  ASSERT_TRUE(alloc_hook_active());  // this binary links tcr_alloc_hook
  PerfConfig cfg;
  cfg.force_rusage = true;
  start(cfg);
  PhaseSampler sampler;
  {
    std::vector<double> v(4096, 1.0);
    EXPECT_GT(v[0], 0.0);
  }
  const Sample s = sampler.sample();
  EXPECT_GE(s.alloc_count, 1);
  EXPECT_GE(s.alloc_bytes, static_cast<std::int64_t>(4096 * sizeof(double)));
}

TEST_F(PerfTest, ResetRebaselines) {
  PerfConfig cfg;
  cfg.force_rusage = true;
  start(cfg);
  PhaseSampler sampler;
  busy_work();
  const Sample before = sampler.sample();
  sampler.reset();
  const Sample after = sampler.sample();
  EXPECT_LT(after.wall_ns, before.wall_ns);
}

TEST(PerfScale, ScaleSampleScalesTimeLikeQuantitiesOnly) {
  Sample s;
  s.source = "rusage";
  s.wall_ns = 100;
  s.cpu_ns = 50;
  s.cycles = 10;
  s.instructions = -1;  // unavailable counters stay unavailable
  s.max_rss_kb = 7;
  s.minor_faults = 3;
  s.alloc_count = 9;
  s.alloc_bytes = 11;
  const Sample scaled = scale_sample(s, 2.0);
  EXPECT_EQ(scaled.wall_ns, 200);
  EXPECT_EQ(scaled.cpu_ns, 100);
  EXPECT_EQ(scaled.cycles, 20);
  EXPECT_EQ(scaled.instructions, -1);
  EXPECT_EQ(scaled.max_rss_kb, 7);
  EXPECT_EQ(scaled.minor_faults, 3);
  EXPECT_EQ(scaled.alloc_count, 9);
  EXPECT_EQ(scaled.alloc_bytes, 11);
}

TEST(PerfSample, ToJsonOmitsUnavailableHardwareCounters) {
  Sample s;
  s.source = "rusage";
  const obs::Json j = s.to_json();
  EXPECT_EQ(j.find("source")->as_string(), "rusage");
  EXPECT_EQ(j.find("cycles"), nullptr);
  EXPECT_EQ(j.find("branch_misses"), nullptr);
  s.cycles = 42;
  EXPECT_EQ(s.to_json().find("cycles")->as_int(), 42);
}

TEST(PerfProvenance, ReportsBuildAndHostIdentity) {
  const obs::Json p = provenance_json();
  for (const char* field : {"git_sha", "compiler", "build_type", "cxx_flags", "cpu"}) {
    ASSERT_NE(p.find(field), nullptr) << field;
    EXPECT_TRUE(p.find(field)->is_string()) << field;
  }
  EXPECT_FALSE(p.find("compiler")->as_string().empty());
}

// ---- history store -------------------------------------------------------

TEST(PerfHistory, CanonicalConfigSortsKeys) {
  auto params = obs::Json::object();
  params.set("points", 5).set("k", 4).set("warm", true);
  EXPECT_EQ(canonical_config(params), "k=4,points=5,warm=true");
}

report::BenchRun run_with_perf_blocks() {
  report::BenchRun run;
  run.bench = "fig1_wc_tradeoff";
  run.params = obs::Json::object();
  run.params.set("k", 4);
  run.provenance = obs::Json::object();
  run.provenance.set("cpu", "test-cpu").set("compiler", "test-cc");
  for (int i = 0; i < 2; ++i) {
    report::BenchRecord rec;
    rec.point = obs::Json::object();
    rec.perf = obs::Json::object();
    rec.perf.set("source", "rusage")
        .set("cpu_ns", 10 + 10 * i)     // 10, 20 -> sum 30
        .set("max_rss_kb", 100 - 20 * i)  // 100, 80 -> max 100
        .set("alloc_count", 5);
    run.records.push_back(std::move(rec));
  }
  return run;
}

TEST(PerfHistory, EntryFromRunSumsDeltasAndMaxesHighWaterMarks) {
  const report::BenchRun run = run_with_perf_blocks();
  HistoryEntry e;
  std::string error;
  ASSERT_TRUE(entry_from_run(run, &e, &error)) << error;
  EXPECT_EQ(e.bench, "fig1_wc_tradeoff");
  EXPECT_EQ(e.config, "k=4");
  EXPECT_EQ(e.source, "rusage");
  EXPECT_DOUBLE_EQ(e.quantities.at("perf.cpu_ns"), 30.0);
  EXPECT_DOUBLE_EQ(e.quantities.at("perf.max_rss_kb"), 100.0);
  EXPECT_DOUBLE_EQ(e.quantities.at("perf.alloc_count"), 10.0);
}

TEST(PerfHistory, EntryFromRunRejectsRunsWithoutPerfBlocks) {
  report::BenchRun run;
  run.bench = "fig1_wc_tradeoff";
  run.records.emplace_back();
  HistoryEntry e;
  std::string error;
  EXPECT_FALSE(entry_from_run(run, &e, &error));
  EXPECT_NE(error.find("--perf"), std::string::npos);
}

TEST(PerfHistory, AppendAndLoadRoundTripPreservesOrder) {
  const std::string path =
      (fs::temp_directory_path() / "tcr_perf_history_test.jsonl").string();
  std::remove(path.c_str());
  std::vector<HistoryEntry> first(1), second(1);
  first[0].bench = "a";
  first[0].commit = "c1";
  first[0].source = "rusage";
  first[0].quantities["perf.cpu_ns"] = 1.5e9;
  second[0].bench = "a";
  second[0].commit = "c2";
  second[0].quantities["perf.cpu_ns"] = 2.0e9;
  std::string error;
  ASSERT_TRUE(append_history(path, first, &error)) << error;
  ASSERT_TRUE(append_history(path, second, &error)) << error;  // append-only
  std::vector<HistoryEntry> loaded;
  ASSERT_TRUE(load_history(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].commit, "c1");
  EXPECT_EQ(loaded[0].source, "rusage");
  EXPECT_DOUBLE_EQ(loaded[0].quantities.at("perf.cpu_ns"), 1.5e9);
  EXPECT_EQ(loaded[1].commit, "c2");
  std::remove(path.c_str());
}

TEST(PerfHistory, LoadMissingFileIsEmptyOnlyWhenAllowed) {
  const std::string path = (fs::temp_directory_path() / "tcr_perf_absent.jsonl").string();
  std::remove(path.c_str());
  std::vector<HistoryEntry> loaded;
  std::string error;
  EXPECT_FALSE(load_history(path, &loaded, &error));
  EXPECT_TRUE(load_history(path, &loaded, &error, /*allow_missing=*/true));
  EXPECT_TRUE(loaded.empty());
}

TEST(PerfHistory, GoogleBenchmarkIngestTakesMinAcrossRepetitions) {
  obs::Json doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(R"({"benchmarks":[
    {"name":"BM_X/4","run_type":"iteration","real_time":120.0,"cpu_time":110.0,
     "time_unit":"ns"},
    {"name":"BM_X/4","run_type":"iteration","real_time":0.1,"cpu_time":0.09,
     "time_unit":"ms"},
    {"name":"BM_X/4_mean","run_type":"aggregate","real_time":1.0,"cpu_time":1.0}
  ]})",
                                 &doc, &error))
      << error;
  std::vector<HistoryEntry> entries;
  ASSERT_TRUE(entries_from_google_benchmark(doc, &entries, &error)) << error;
  ASSERT_EQ(entries.size(), 1u);  // aggregates are skipped
  EXPECT_EQ(entries[0].bench, "micro_kernels");
  EXPECT_EQ(entries[0].config, "BM_X/4");
  EXPECT_DOUBLE_EQ(entries[0].quantities.at("perf.real_ns"), 120.0);   // min(120, 1e5)
  EXPECT_DOUBLE_EQ(entries[0].quantities.at("perf.cpu_ns"), 110.0);
}

TEST(PerfHistory, MedianOfRepeatsShrugsOffOneOutlier) {
  std::vector<HistoryEntry> entries(3);
  const double values[] = {10.0, 1000.0, 11.0};  // one descheduled repeat
  for (int i = 0; i < 3; ++i) {
    entries[i].bench = std::string(1, 'b');
    entries[i].commit = std::string(1, 'c');
    entries[i].quantities["perf.cpu_ns"] = values[i];
  }
  const std::vector<KeyStats> stats = median_by_key(entries);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].repeats, 3);
  EXPECT_DOUBLE_EQ(stats[0].median.at("perf.cpu_ns"), 11.0);
}

// ---- gate ----------------------------------------------------------------

KeyStats stats(const std::string& bench, const std::string& commit, double cpu_ns,
               const std::string& cpu_model = "m1") {
  KeyStats ks;
  ks.bench = bench;
  ks.config = "k=4";
  ks.commit = commit;
  ks.repeats = 1;
  ks.provenance = obs::Json::object();
  ks.provenance.set("cpu", cpu_model).set("compiler", "cc-1");
  ks.median["perf.cpu_ns"] = cpu_ns;
  return ks;
}

TEST(PerfGate, NamesRegressedQuantityWithRatioAndThreshold) {
  const std::vector<KeyStats> base = {stats("fig1", "old", 1e9)};
  const std::vector<KeyStats> cand = {stats("fig1", "new", 2e9)};
  const std::vector<GateFinding> findings = gate(base, cand);
  ASSERT_FALSE(findings.empty());
  const GateFinding& f = findings.front();  // regressions sort first
  EXPECT_EQ(f.verdict, GateFinding::Verdict::Regressed);
  EXPECT_EQ(f.bench, "fig1");
  EXPECT_EQ(f.quantity, "perf.cpu_ns");
  EXPECT_DOUBLE_EQ(f.baseline, 1e9);
  EXPECT_DOUBLE_EQ(f.candidate, 2e9);
  EXPECT_DOUBLE_EQ(f.ratio, 2.0);
  EXPECT_DOUBLE_EQ(f.threshold, 1.40);
  EXPECT_TRUE(any_regression(findings));
}

TEST(PerfGate, IdenticalMediansPass) {
  const std::vector<KeyStats> base = {stats("fig1", "old", 1e9)};
  const std::vector<KeyStats> cand = {stats("fig1", "new", 1e9)};
  const std::vector<GateFinding> findings = gate(base, cand);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].verdict, GateFinding::Verdict::Pass);
  EXPECT_FALSE(any_regression(findings));
}

TEST(PerfGate, MachineMismatchSkipsTimeButStillGatesAllocCounts) {
  KeyStats base = stats("fig1", "old", 1e9, "xeon");
  KeyStats cand = stats("fig1", "new", 5e9, "epyc");  // 5x, but other machine
  base.median["perf.alloc_bytes"] = 1e6;
  cand.median["perf.alloc_bytes"] = 2e6;  // 2x > alloc_ratio 1.10: real leak
  const std::vector<GateFinding> findings = gate({base}, {cand});
  ASSERT_EQ(findings.size(), 2u);
  // Regressions first: the alloc count fires, the cpu time is skipped.
  EXPECT_EQ(findings[0].quantity, "perf.alloc_bytes");
  EXPECT_EQ(findings[0].verdict, GateFinding::Verdict::Regressed);
  EXPECT_EQ(findings[1].quantity, "perf.cpu_ns");
  EXPECT_EQ(findings[1].verdict, GateFinding::Verdict::SkippedMachine);
  EXPECT_TRUE(any_regression(findings));
}

TEST(PerfGate, NoiseFloorSuppressesTinyBaselines) {
  // 5x on a 1000ns baseline: far under time_floor_ns, not a regression.
  const std::vector<KeyStats> base = {stats("fig1", "old", 1e3)};
  const std::vector<KeyStats> cand = {stats("fig1", "new", 5e3)};
  const std::vector<GateFinding> findings = gate(base, cand);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].verdict, GateFinding::Verdict::SkippedFloor);
}

TEST(PerfGate, PerQuantityThresholdOverrides) {
  GatePolicy policy;
  policy.per_quantity["perf.cpu_ns"] = 3.0;
  const std::vector<KeyStats> base = {stats("fig1", "old", 1e9)};
  const std::vector<KeyStats> cand = {stats("fig1", "new", 2e9)};
  EXPECT_FALSE(any_regression(gate(base, cand, policy)));  // 2.0x < 3.0x
  policy.per_quantity["perf.cpu_ns"] = 1.5;
  EXPECT_TRUE(any_regression(gate(base, cand, policy)));
}

TEST(PerfGate, NewBenchesAreMissingNotRegressed) {
  const std::vector<KeyStats> cand = {stats("brand_new", "new", 1e9)};
  const std::vector<GateFinding> findings = gate({}, cand);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].verdict, GateFinding::Verdict::Missing);
  EXPECT_FALSE(any_regression(findings));
}

TEST(PerfGate, QuantityClassesAndThresholds) {
  EXPECT_EQ(classify_quantity("perf.cpu_ns"), QuantityClass::Time);
  EXPECT_EQ(classify_quantity("perf.cycles"), QuantityClass::Time);
  EXPECT_EQ(classify_quantity("perf.real_ns"), QuantityClass::Time);
  EXPECT_EQ(classify_quantity("perf.alloc_bytes"), QuantityClass::Alloc);
  EXPECT_EQ(classify_quantity("perf.max_rss_kb"), QuantityClass::Rss);
  EXPECT_EQ(classify_quantity("perf.cache_misses"), QuantityClass::Noisy);
  EXPECT_EQ(classify_quantity("perf.minor_faults"), QuantityClass::Noisy);
  const GatePolicy policy;
  EXPECT_DOUBLE_EQ(threshold_for(policy, "perf.cpu_ns"), policy.time_ratio);
  EXPECT_DOUBLE_EQ(threshold_for(policy, "perf.alloc_count"), policy.alloc_ratio);
  EXPECT_DOUBLE_EQ(threshold_for(policy, "perf.max_rss_kb"), policy.rss_ratio);
  EXPECT_DOUBLE_EQ(threshold_for(policy, "perf.major_faults"), policy.noisy_ratio);
}

TEST(PerfReport, MarkdownTrajectoryListsCommitsInOrder) {
  std::vector<HistoryEntry> entries(2);
  entries[0].bench = "fig1";
  entries[0].config = "k=4";
  entries[0].commit = "first";
  entries[0].quantities["perf.cpu_ns"] = 1e9;
  entries[1] = entries[0];
  entries[1].commit = "second";
  entries[1].quantities["perf.cpu_ns"] = 1.2e9;
  const std::string md = markdown_report(entries);
  EXPECT_NE(md.find("# Perf trajectory"), std::string::npos);
  EXPECT_NE(md.find("## fig1 (k=4)"), std::string::npos);
  const std::size_t first = md.find("|first|");
  const std::size_t second = md.find("|second|");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_NE(md.find("1.20x"), std::string::npos);  // vs-prev headline delta
}

}  // namespace
}  // namespace tcr::perf
