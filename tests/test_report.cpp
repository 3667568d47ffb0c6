// Tests of tcr::report — the layer behind tcr-repro: the JSON reader that
// parses back what obs::Json writes, the versioned bench-record schema, the
// golden-value comparator, and the EXPERIMENTS.md renderer. Fixture files
// live in tests/data/report/ (TCR_TEST_DATA_DIR); sample_run.jsonl is real
// bench_fig4 output, experiments_fixture.md the renderer's golden output.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "tcr/obs/json.hpp"
#include "tcr/report/golden.hpp"
#include "tcr/report/markdown.hpp"
#include "tcr/report/schema.hpp"

namespace {

using namespace tcr;
using report::BenchRecord;
using report::BenchRun;
using report::Comparison;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string data_path(const std::string& name) {
  return std::string(TCR_TEST_DATA_DIR) + "/report/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

obs::Json parse_ok(const std::string& text) {
  obs::Json doc;
  std::string err;
  EXPECT_TRUE(obs::parse_json(text, &doc, &err)) << err;
  return doc;
}

// ---------------------------------------------------------------- reader

TEST(JsonReader, ParsesScalarsAndNesting) {
  const obs::Json doc =
      parse_ok(R"({"a":1,"b":-2.5e-1,"c":"s\"t","d":[true,false,null],"e":{"f":[]}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(doc.find("b")->as_number(), -0.25);
  EXPECT_EQ(doc.find("c")->as_string(), "s\"t");
  ASSERT_EQ(doc.find("d")->size(), 3u);
  EXPECT_TRUE(doc.find("d")->elements()[0].as_bool());
  EXPECT_TRUE(doc.find("d")->elements()[2].is_null());
  EXPECT_EQ(doc.find("e")->find("f")->size(), 0u);
}

TEST(JsonReader, UnicodeEscapesDecodeToUtf8) {
  const obs::Json doc = parse_ok(R"({"s":"éA"})");
  EXPECT_EQ(doc.find("s")->as_string(), "\xc3\xa9"  "A");
}

TEST(JsonReader, RoundTripsWhatObsJsonWrites) {
  auto original = obs::Json::object();
  original.set("name", "fig1").set("k", 8).set("frac", 0.28571428571428603);
  auto flags = obs::Json::array();
  flags.push_back(true).push_back(obs::Json());
  original.set("flags", std::move(flags));
  const obs::Json reparsed = parse_ok(original.dump());
  EXPECT_TRUE(reparsed.equals(original)) << reparsed.dump();
}

TEST(JsonReader, NanWritesAsNullAndReadsBackAsNan) {
  auto original = obs::Json::object();
  original.set("value", kNaN);
  const std::string text = original.dump();
  EXPECT_NE(text.find("null"), std::string::npos) << text;
  const obs::Json reparsed = parse_ok(text);
  EXPECT_TRUE(reparsed.find("value")->is_null());
  EXPECT_TRUE(std::isnan(reparsed.find("value")->as_number()));
  // equals() is kind-exact (Null != Double); the numeric round trip happens
  // at the as_number()/point_number() layer, which is what the gate reads.
  EXPECT_FALSE(reparsed.equals(original));
}

TEST(JsonReader, RejectsMalformedInput) {
  obs::Json doc;
  std::string err;
  EXPECT_FALSE(obs::parse_json("{\"a\":1", &doc, &err));
  EXPECT_FALSE(obs::parse_json("{\"a\":1} trailing", &doc, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
  EXPECT_FALSE(obs::parse_json("{'a':1}", &doc, &err));
  EXPECT_FALSE(obs::parse_json("", &doc, &err));
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  EXPECT_FALSE(obs::parse_json(deep, &doc, &err));
  EXPECT_NE(err.find("too deep"), std::string::npos) << err;
}

TEST(JsonReader, ParsesJsonLinesWithLineNumbersInErrors) {
  std::istringstream good("{\"a\":1}\n\n{\"b\":2}\n");
  std::vector<obs::Json> docs;
  std::string err;
  ASSERT_TRUE(obs::parse_json_lines(good, &docs, &err)) << err;
  EXPECT_EQ(docs.size(), 2u);

  std::istringstream bad("{\"a\":1}\n{oops}\n");
  EXPECT_FALSE(obs::parse_json_lines(bad, &docs, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

// ---------------------------------------------------------------- schema

TEST(Schema, ParsesRealBenchOutput) {
  BenchRun run;
  std::string err;
  ASSERT_TRUE(report::parse_run_file(data_path("sample_run.jsonl"), &run, &err)) << err;
  EXPECT_EQ(run.schema_version, report::kSchemaVersion);
  EXPECT_EQ(run.bench, "fig4_locality_vs_radix");
  EXPECT_EQ(run.params.find("kmin")->as_int(), 3);
  ASSERT_EQ(run.records.size(), 2u);
  EXPECT_NEAR(report::point_number(run.records[0], "ival_locality"), 1.5555555555555538,
              1e-12);
  EXPECT_TRUE(std::isnan(report::point_number(run.records[0], "no_such_field")));

  auto match = obs::Json::object();
  match.set("k", 4);
  EXPECT_FALSE(report::point_matches(run.records[0], match));
  EXPECT_TRUE(report::point_matches(run.records[1], match));

  // Two records, each carrying two_turn_certificate + optimal_certificate.
  const report::CertificateTally tally = report::tally_certificates({run});
  EXPECT_EQ(tally.checked, 4);
  EXPECT_EQ(tally.failed, 0);
}

TEST(Schema, RejectsMissingOrForeignHeader) {
  const std::string path = testing::TempDir() + "/bad_run.jsonl";
  BenchRun run;
  std::string err;

  std::ofstream(path) << R"({"kind":"point","bench":"x","point":{}})" << "\n";
  EXPECT_FALSE(report::parse_run_file(path, &run, &err));
  EXPECT_NE(err.find("meta"), std::string::npos) << err;

  std::ofstream(path) << R"({"schema_version":99,"kind":"meta","bench":"x","params":{}})"
                      << "\n";
  EXPECT_FALSE(report::parse_run_file(path, &run, &err));
  EXPECT_NE(err.find("schema_version"), std::string::npos) << err;

  std::ofstream(path) << R"({"schema_version":1,"kind":"meta","bench":"x","params":{}})"
                      << "\n"
                      << R"({"kind":"point","bench":"y","point":{"v":1}})" << "\n";
  EXPECT_FALSE(report::parse_run_file(path, &run, &err));
  EXPECT_NE(err.find("does not match"), std::string::npos) << err;
}

TEST(Schema, TruncationFuzzTornTailToleratedOnlyOnRequest) {
  // A records file killed mid-write ends in a torn final line. Cut the file
  // at *every* byte inside the last record: the strict reader must fail with
  // the line number, and the tolerant reader (what tcr-repro uses) must drop
  // exactly the torn record, keep the intact prefix, and say what it did.
  const std::string meta =
      R"({"schema_version":1,"kind":"meta","bench":"x","params":{}})" "\n";
  const std::string point1 = R"({"kind":"point","bench":"x","point":{"v":1}})" "\n";
  const std::string point2 = R"({"kind":"point","bench":"x","point":{"v":2}})" "\n";
  const std::string full = meta + point1 + point2;
  const std::size_t tail_start = meta.size() + point1.size();
  const std::string path = testing::TempDir() + "/torn_run.jsonl";

  report::RunFileOptions tolerant;
  tolerant.tolerate_truncated_tail = true;
  // Stop before full.size()-1: dropping only the trailing newline leaves a
  // complete (parseable) final record, which is not a truncation at all.
  for (std::size_t cut = tail_start + 1; cut + 1 < full.size(); ++cut) {
    std::ofstream(path, std::ios::trunc) << full.substr(0, cut);

    BenchRun run;
    std::string err;
    EXPECT_FALSE(report::parse_run_file(path, &run, &err)) << "cut at " << cut;
    EXPECT_NE(err.find("line 3"), std::string::npos) << "cut at " << cut << ": " << err;

    ASSERT_TRUE(report::parse_run_file(path, &run, &err, tolerant))
        << "cut at " << cut << ": " << err;
    ASSERT_EQ(run.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(run.records[0].point.find("v")->as_int(), 1);
    EXPECT_NE(run.truncation_note.find("dropped torn final record"), std::string::npos)
        << run.truncation_note;
    EXPECT_NE(run.truncation_note.find("line 3"), std::string::npos) << run.truncation_note;
  }

  // An intact file parses clean under both readers, with no truncation note.
  std::ofstream(path, std::ios::trunc) << full;
  BenchRun run;
  std::string err;
  ASSERT_TRUE(report::parse_run_file(path, &run, &err, tolerant)) << err;
  EXPECT_EQ(run.records.size(), 2u);
  EXPECT_TRUE(run.truncation_note.empty()) << run.truncation_note;
}

TEST(Schema, MidFileCorruptionIsHardErrorEvenWhenTolerant) {
  // Tolerance covers exactly one torn *final* record. A mangled line with
  // intact lines after it means lost data in the middle; parsing on would
  // silently drop a record, so both readers must refuse, naming the line.
  const std::string path = testing::TempDir() + "/midfile_run.jsonl";
  std::ofstream(path, std::ios::trunc)
      << R"({"schema_version":1,"kind":"meta","bench":"x","params":{}})" << "\n"
      << R"({"kind":"point","bench":"x","point":{"v)" << "\n"
      << R"({"kind":"point","bench":"x","point":{"v":2}})" << "\n";

  report::RunFileOptions tolerant;
  tolerant.tolerate_truncated_tail = true;
  BenchRun run;
  std::string err;
  EXPECT_FALSE(report::parse_run_file(path, &run, &err, tolerant));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Schema, CountsFailedCertificatesAndSkipsUnchecked) {
  BenchRun run;
  run.bench = "demo";
  BenchRecord rec;
  rec.point = parse_ok(
      R"({"certificate":{"checked":true,"pass":false},)"
      R"("optimal_certificate":{"checked":false,"pass":false},)"
      R"("two_turn_certificate":{"checked":true,"pass":true}})");
  run.records.push_back(rec);
  const report::CertificateTally tally = report::tally_certificates({run});
  EXPECT_EQ(tally.checked, 2);  // the unchecked (unsolved) one is skipped
  EXPECT_EQ(tally.failed, 1);
}

// ------------------------------------------------------------ comparator

BenchRun demo_run(const std::string& point_json) {
  BenchRun run;
  run.bench = "demo";
  run.schema_version = report::kSchemaVersion;
  BenchRecord rec;
  rec.point = parse_ok(point_json);
  run.records.push_back(rec);
  return run;
}

report::Quantity demo_quantity(double measured, double abs_tol, double rel_tol) {
  report::Quantity q;
  q.id = "demo.wc";
  q.presets = {"smoke"};
  q.bench = "demo";
  q.match = parse_ok(R"({"algorithm":"ALPHA"})");
  q.field = "wc";
  q.measured = measured;
  q.has_measured = true;
  q.abs_tol = abs_tol;
  q.rel_tol = rel_tol;
  return q;
}

TEST(Comparator, PassesWithinTolerance) {
  const auto q = demo_quantity(0.5, 1e-6, 0.0);
  const auto cmp =
      report::compare_quantity(q, {demo_run(R"({"algorithm":"ALPHA","wc":0.5000004})")});
  EXPECT_EQ(cmp.outcome, Comparison::Outcome::Pass);
  EXPECT_NEAR(cmp.delta, 4e-7, 1e-12);
}

TEST(Comparator, BreachesOnAbsoluteTolerance) {
  const auto q = demo_quantity(0.5, 1e-6, 0.0);
  const auto cmp =
      report::compare_quantity(q, {demo_run(R"({"algorithm":"ALPHA","wc":0.51})")});
  EXPECT_EQ(cmp.outcome, Comparison::Outcome::Breach);
  EXPECT_NE(cmp.reason.find("GOLDEN BREACH demo.wc"), std::string::npos) << cmp.reason;
  EXPECT_NE(cmp.reason.find("delta"), std::string::npos) << cmp.reason;
}

TEST(Comparator, RelativeToleranceScalesWithMeasured) {
  const auto q = demo_quantity(2.0, 0.0, 1e-3);  // tolerance = 0.002
  EXPECT_EQ(report::compare_quantity(q, {demo_run(R"({"algorithm":"ALPHA","wc":2.0015})")})
                .outcome,
            Comparison::Outcome::Pass);
  EXPECT_EQ(report::compare_quantity(q, {demo_run(R"({"algorithm":"ALPHA","wc":2.0030})")})
                .outcome,
            Comparison::Outcome::Breach);
}

TEST(Comparator, UnsolvedStateMustMatchRecording) {
  auto q = demo_quantity(kNaN, 0.0, 0.0);  // recorded as unsolved (null)
  EXPECT_EQ(report::compare_quantity(q, {demo_run(R"({"algorithm":"ALPHA","wc":null})")})
                .outcome,
            Comparison::Outcome::Pass);
  EXPECT_EQ(report::compare_quantity(q, {demo_run(R"({"algorithm":"ALPHA","wc":0.5})")})
                .outcome,
            Comparison::Outcome::Breach);

  q = demo_quantity(0.5, 1e-6, 0.0);  // recorded solved, fresh run unsolved
  const auto cmp =
      report::compare_quantity(q, {demo_run(R"({"algorithm":"ALPHA","wc":null})")});
  EXPECT_EQ(cmp.outcome, Comparison::Outcome::Breach);
  EXPECT_NE(cmp.reason.find("unsolved"), std::string::npos) << cmp.reason;
}

TEST(Comparator, ReportsMissingBenchAndMissingRecord) {
  const auto q = demo_quantity(0.5, 1e-6, 0.0);
  EXPECT_EQ(report::compare_quantity(q, {}).outcome, Comparison::Outcome::Missing);
  EXPECT_EQ(report::compare_quantity(q, {demo_run(R"({"algorithm":"BETA","wc":0.5})")})
                .outcome,
            Comparison::Outcome::Missing);
}

// ---------------------------------------------------------------- golden

TEST(Golden, LoadsFixtureAndFiltersByPreset) {
  report::GoldenFile golden;
  std::string err;
  ASSERT_TRUE(report::load_golden(data_path("golden_fixture.json"), &golden, &err)) << err;
  EXPECT_EQ(golden.schema_version, report::kSchemaVersion);
  ASSERT_NE(golden.find_table("claims"), nullptr);
  EXPECT_EQ(golden.find_table("sweep")->columns.size(), 2u);
  EXPECT_EQ(golden.quantities.size(), 7u);

  int smoke_gated = 0;
  for (const auto& q : golden.quantities) {
    if (q.gated() && q.applies_to("smoke")) ++smoke_gated;
  }
  EXPECT_EQ(smoke_gated, 2);
  // fix.gamma is presentation-only: never gated, still rendered.
  for (const auto& q : golden.quantities) {
    if (q.id == "fix.gamma") {
      EXPECT_FALSE(q.gated());
    }
    if (q.id == "fix.unsolved") {
      EXPECT_TRUE(q.gated() && std::isnan(q.measured));
    }
  }
}

TEST(Golden, RejectsInvalidFiles) {
  const std::string path = testing::TempDir() + "/bad_golden.json";
  report::GoldenFile golden;
  std::string err;

  std::ofstream(path) << R"({"schema_version":1,"quantities":[{"id":"a"},{"id":"a"}]})";
  EXPECT_FALSE(report::load_golden(path, &golden, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;

  std::ofstream(path)
      << R"({"schema_version":1,"quantities":[{"id":"a","bench":"b","field":"f"}]})";
  EXPECT_FALSE(report::load_golden(path, &golden, &err));
  EXPECT_NE(err.find("measured"), std::string::npos) << err;

  std::ofstream(path) << R"({"schema_version":1,"quantities":[{"id":"a","table":"t"}]})";
  EXPECT_FALSE(report::load_golden(path, &golden, &err));
  EXPECT_NE(err.find("unknown table"), std::string::npos) << err;

  std::ofstream(path) << R"({"schema_version":7,"quantities":[]})";
  EXPECT_FALSE(report::load_golden(path, &golden, &err));
  EXPECT_NE(err.find("schema_version"), std::string::npos) << err;
}

// -------------------------------------------------------------- markdown

TEST(Markdown, FormatsMeasuredValues) {
  EXPECT_EQ(report::format_measured(0.5, 4), "0.5000");
  EXPECT_EQ(report::format_measured(1.4843714374999508, 4), "1.4844");
  EXPECT_EQ(report::format_measured(1.53125, 2), "1.53");
  EXPECT_EQ(report::format_measured(kNaN, 4), "unsolved");
}

TEST(Markdown, RendersFixtureTemplateByteIdentically) {
  report::GoldenFile golden;
  std::string err;
  ASSERT_TRUE(report::load_golden(data_path("golden_fixture.json"), &golden, &err)) << err;

  const std::string tmpl =
      "<!-- tcr:generated -->\n"
      "# Fixture\n"
      "\n"
      "Prose stays.\n"
      "\n"
      "<!-- tcr:table claims -->\n"
      "\n"
      "## Sweep\n"
      "\n"
      "<!-- tcr:table sweep -->\n"
      "Tail line.\n";
  std::string rendered;
  ASSERT_TRUE(report::render_experiments(tmpl, golden, &rendered, &err)) << err;
  EXPECT_EQ(rendered, read_file(data_path("experiments_fixture.md")));
}

TEST(Markdown, RejectsUnknownDirectivesAndTables) {
  report::GoldenFile golden;
  std::string err;
  ASSERT_TRUE(report::load_golden(data_path("golden_fixture.json"), &golden, &err)) << err;

  std::string rendered;
  EXPECT_FALSE(report::render_experiments("<!-- tcr:tabel claims -->\n", golden, &rendered,
                                          &err));
  EXPECT_NE(err.find("unknown tcr directive"), std::string::npos) << err;
  EXPECT_FALSE(
      report::render_experiments("<!-- tcr:table nope -->\n", golden, &rendered, &err));
  EXPECT_NE(err.find("no table named"), std::string::npos) << err;
}

TEST(Markdown, RepoGoldenFileLoadsAndRendersRepoTemplate) {
  report::GoldenFile golden;
  std::string err;
  ASSERT_TRUE(report::load_golden(std::string(TCR_SOURCE_DIR) + "/bench/golden.json",
                                  &golden, &err))
      << err;
  std::string rendered;
  ASSERT_TRUE(report::render_experiments(
      read_file(std::string(TCR_SOURCE_DIR) + "/docs/experiments.tmpl.md"), golden,
      &rendered, &err))
      << err;
  EXPECT_NE(rendered.find("| 8 | 1.6133 | 1.4844 | 1.4790 |"), std::string::npos);
}

}  // namespace
