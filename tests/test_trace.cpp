// tcr::trace unit tests: span nesting and parent capture, cross-thread
// linkage through the ThreadPool, the disabled-tracer zero-cost path
// (asserted down to zero heap allocations), ring-buffer overflow
// accounting, the dual Span+Timer consumer, the Chrome trace-event
// exporter (validated by parsing its output back), and the trace-analysis
// library behind tools/tcr_trace.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "tcr/obs/registry.hpp"
#include "tcr/obs/json.hpp"
#include "tcr/trace/analysis.hpp"
#include "tcr/trace/export.hpp"
#include "tcr/trace/tracer.hpp"
#include "tcr/util/thread_pool.hpp"

// ---- global allocation counter ------------------------------------------
// Counts every heap allocation in the binary so the disabled-tracer test can
// assert the zero-allocation guarantee. All deallocation variants are
// defined to keep the overrides consistent.

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
// GCC's -Wmismatched-new-delete doesn't model that the overridden operator
// new above is malloc-backed, so free() here is the matching deallocator.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace tcr::trace {
namespace {

// The tracer is process-wide; every test starts/stops it explicitly and the
// fixture guarantees a stopped, clean tracer on entry and exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().stop();
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().stop();
    Tracer::instance().clear();
    obs::Registry::instance().set_timing_enabled(false);
  }

  static const Event* find_span(const std::vector<Event>& events, std::string_view name) {
    for (const Event& e : events) {
      if (e.type == Event::Type::kSpan && e.name == name) return &e;
    }
    return nullptr;
  }
};

TEST_F(TraceTest, NestedSpansLinkToEnclosingSpan) {
  Tracer::instance().start();
  {
    Span outer("outer");
    outer.attr("k", 4);
    {
      Span inner("inner");
      inner.attr("deep", true);
      Span innermost("innermost");
    }
    Span sibling("sibling");
  }
  Tracer::instance().stop();

  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 4u);  // completion order: innermost first
  const Event* outer = find_span(events, "outer");
  const Event* inner = find_span(events, "inner");
  const Event* innermost = find_span(events, "innermost");
  const Event* sibling = find_span(events, "sibling");
  ASSERT_TRUE(outer && inner && innermost && sibling);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(innermost->parent, inner->id);
  EXPECT_EQ(sibling->parent, outer->id);  // cursor restored after inner ended
  EXPECT_GE(outer->dur_ns, inner->dur_ns);
  ASSERT_EQ(outer->attrs.size(), 1u);
  EXPECT_EQ(outer->attrs[0].key, "k");
  EXPECT_EQ(outer->attrs[0].i, 4);
}

TEST_F(TraceTest, ExplicitParentOverridesThreadCursor) {
  Tracer::instance().start();
  std::uint64_t parent_id = 0;
  {
    Span parent("parent");
    parent_id = parent.context().id;
    Span unrelated("unrelated");
    // Explicit parent wins over the live `unrelated` cursor.
    Span child("child", parent.context());
  }
  Tracer::instance().stop();
  const auto events = Tracer::instance().events();
  const Event* child = find_span(events, "child");
  ASSERT_TRUE(child != nullptr);
  EXPECT_EQ(child->parent, parent_id);
}

TEST_F(TraceTest, ThreadPoolTasksInheritSchedulersSpan) {
  Tracer::instance().start();
  std::uint64_t scheduler_span = 0;
  {
    ThreadPool pool(2);
    Span span("scheduler");
    scheduler_span = span.context().id;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 8; ++i) {
      futs.push_back(pool.submit([] { Span worker("pool.task"); }));
    }
    for (auto& f : futs) f.get();
  }
  Tracer::instance().stop();

  const auto events = Tracer::instance().events();
  int tasks = 0;
  for (const Event& e : events) {
    if (e.name != "pool.task") continue;
    ++tasks;
    // The ambient-parent handoff installed by ThreadPool::submit() links the
    // worker-side span to the span live on the scheduling thread.
    EXPECT_EQ(e.parent, scheduler_span);
  }
  EXPECT_EQ(tasks, 8);
}

TEST_F(TraceTest, AdoptedParentIsRestoredAfterScope) {
  Tracer::instance().start();
  {
    ScopedParent adopt(SpanContext{77});
    EXPECT_EQ(current_context().id, 77u);
    {
      ScopedParent inner_adopt(SpanContext{99});
      EXPECT_EQ(current_context().id, 99u);
    }
    EXPECT_EQ(current_context().id, 77u);
  }
  EXPECT_EQ(current_context().id, 0u);
  Tracer::instance().stop();
}

TEST_F(TraceTest, DisabledTracerAllocatesNothing) {
  ASSERT_FALSE(enabled());
  // Warm up lazies (thread-local state, timer registration) outside the
  // measured window.
  auto& timer = obs::Registry::instance().timer("test.trace.disabled.timer");
  { Span warmup("warmup", timer); }
  counter("warmup.counter", 1.0);

  const long before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    Span span("bench.disabled");
    span.attr("i", i);
    span.attr("x", 0.5);
    span.attr("s", "text");
    counter("disabled.counter", 1.0);
    Span timed("bench.disabled.timed", timer);
  }
  const long after = g_allocations.load();
  EXPECT_EQ(after - before, 0) << "disabled tracing must not allocate";
  EXPECT_EQ(timer.count(), 0);  // timing disabled too: no clock feeds
  EXPECT_TRUE(Tracer::instance().events().empty());
}

TEST_F(TraceTest, RingBufferOverwritesOldestAndCountsDrops) {
  TracerConfig cfg;
  cfg.capacity = 8;
  Tracer::instance().start(cfg);
  for (int i = 0; i < 20; ++i) {
    const std::string name = "span." + std::to_string(i);  // outlives the span
    Span span(name);
  }
  Tracer::instance().stop();

  EXPECT_EQ(Tracer::instance().dropped(), 12);
  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first: the 12 oldest were overwritten, spans 12..19 survive.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].name, "span." + std::to_string(12 + i));
  }
}

TEST_F(TraceTest, CountersCarryTheLiveSpanAsParent) {
  Tracer::instance().start();
  {
    Span span("solve");
    counter("objective", 2.5);
  }
  counter("rootless", 1.0);
  Tracer::instance().stop();

  const auto events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 3u);
  const Event* span = find_span(events, "solve");
  ASSERT_TRUE(span != nullptr);
  int counters = 0;
  for (const Event& e : events) {
    if (e.type != Event::Type::kCounter) continue;
    ++counters;
    if (e.name == "objective") {
      EXPECT_EQ(e.parent, span->id);
      EXPECT_DOUBLE_EQ(e.value, 2.5);
    } else {
      EXPECT_EQ(e.name, "rootless");
      EXPECT_EQ(e.parent, 0u);
    }
  }
  EXPECT_EQ(counters, 2);
}

TEST_F(TraceTest, SpanFeedsTimerAndTraceIndependently) {
  auto& timer = obs::Registry::instance().timer("test.trace.dual.timer");

  // Tracing on, timing off: event recorded, timer untouched.
  Tracer::instance().start();
  { Span span("dual", timer); }
  Tracer::instance().stop();
  EXPECT_EQ(timer.count(), 0);
  EXPECT_EQ(Tracer::instance().events().size(), 1u);

  // Timing on, tracing off: timer fed, no event recorded.
  Tracer::instance().clear();
  obs::Registry::instance().set_timing_enabled(true);
  { Span span("dual", timer); }
  obs::Registry::instance().set_timing_enabled(false);
  EXPECT_EQ(timer.count(), 1);
  EXPECT_GE(timer.wall_seconds(), 0.0);
  EXPECT_TRUE(Tracer::instance().events().empty());

  // end() is idempotent.
  Tracer::instance().start();
  {
    Span span("dual.end", timer);
    span.end();
    span.end();
  }
  Tracer::instance().stop();
  EXPECT_EQ(Tracer::instance().events().size(), 1u);
}

// ---- exporter -----------------------------------------------------------

TEST_F(TraceTest, ExporterEmitsValidChromeTraceJson) {
  Tracer::instance().start();
  {
    Span span("work");
    span.attr("k", 8);
    span.attr("ratio", 0.75);
    span.attr("warm", true);
    span.attr("mode", "chained");
    counter("track", 3.5);
  }
  Tracer::instance().stop();

  std::ostringstream os;
  write_chrome_trace(Tracer::instance().events(), os, /*dropped=*/5);

  obs::Json doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(os.str(), &doc, &error)) << error;
  // Top-level schema: displayTimeUnit + traceEvents (array) + otherData.
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.find("displayTimeUnit") != nullptr);
  const obs::Json* other = doc.find("otherData");
  ASSERT_TRUE(other != nullptr);
  EXPECT_EQ(other->find("dropped_events")->as_int(), 5);
  const obs::Json* events = doc.find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_EQ(events->size(), 2u);

  int spans = 0, counters = 0;
  for (const obs::Json& e : events->elements()) {
    // Every event carries the required Chrome trace-event keys.
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.find("ph")->as_string();
    EXPECT_TRUE(e.find("name") != nullptr);
    EXPECT_TRUE(e.find("pid") != nullptr);
    EXPECT_TRUE(e.find("tid") != nullptr);
    EXPECT_TRUE(e.find("ts") != nullptr);
    EXPECT_TRUE(e.find("cat") != nullptr);
    if (ph == "X") {
      ++spans;
      EXPECT_TRUE(e.find("dur") != nullptr);
      const obs::Json* args = e.find("args");
      ASSERT_TRUE(args != nullptr);
      EXPECT_GT(args->find("span_id")->as_int(), 0);
      EXPECT_EQ(args->find("k")->as_int(), 8);
      EXPECT_DOUBLE_EQ(args->find("ratio")->as_number(), 0.75);
      EXPECT_TRUE(args->find("warm")->as_bool());
      EXPECT_EQ(args->find("mode")->as_string(), "chained");
    } else {
      ASSERT_EQ(ph, "C");
      ++counters;
      EXPECT_DOUBLE_EQ(e.find("args")->find("value")->as_number(), 3.5);
    }
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(counters, 1);
}

// ---- analysis -----------------------------------------------------------

// Build a Trace by round-tripping live spans through the exporter + loader,
// which keeps the analysis tests honest about the real file format.
class AnalysisTest : public TraceTest {
 protected:
  static Trace exported(std::int64_t dropped = 0) {
    std::ostringstream os;
    write_chrome_trace(Tracer::instance().events(), os, dropped);
    Trace out;
    std::string error;
    EXPECT_TRUE(load_trace_string(os.str(), &out, &error)) << error;
    return out;
  }

  static bool load_trace_string(const std::string& text, Trace* out, std::string* error) {
    obs::Json doc;
    if (!obs::parse_json(text, &doc, error)) return false;
    return load_trace(doc, out, error);
  }
};

TEST_F(AnalysisTest, LoadTraceRecoversSpansCountersAndDrops) {
  Tracer::instance().start();
  {
    Span outer("outer");
    counter("track", 1.0);
    Span inner("inner");
  }
  Tracer::instance().stop();
  const Trace trace = exported(/*dropped=*/3);
  EXPECT_EQ(trace.dropped_events, 3);
  ASSERT_EQ(trace.spans.size(), 2u);
  ASSERT_EQ(trace.counters.size(), 1u);
  const SpanRec& inner = trace.spans[0];  // completion order
  const SpanRec& outer = trace.spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(trace.counters[0].parent, outer.id);
}

TEST_F(AnalysisTest, AggregateComputesSelfTimeAcrossParents) {
  Tracer::instance().start();
  {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  Tracer::instance().stop();
  const Trace trace = exported();
  const auto agg = aggregate(trace);
  ASSERT_TRUE(agg.count("outer"));
  ASSERT_TRUE(agg.count("inner"));
  EXPECT_EQ(agg.at("outer").count, 1);
  EXPECT_EQ(agg.at("inner").count, 2);
  // outer self = outer total - both inner children.
  EXPECT_EQ(agg.at("outer").self_ns,
            agg.at("outer").total_ns - agg.at("inner").total_ns);
  EXPECT_GE(agg.at("outer").self_ns, 0);
  EXPECT_GE(agg.at("inner").max_ns, agg.at("inner").total_ns / 2);
}

TEST_F(AnalysisTest, FlameJsonMirrorsAggregateInSelfTimeOrder) {
  Tracer::instance().start();
  {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  Tracer::instance().stop();
  const Trace trace = exported(/*dropped=*/1);
  const obs::Json doc = flame_json(trace);
  EXPECT_EQ(doc.find("spans")->as_int(), 3);
  EXPECT_EQ(doc.find("counters")->as_int(), 0);
  EXPECT_EQ(doc.find("dropped")->as_int(), 1);
  const obs::Json* flame = doc.find("flame");
  ASSERT_NE(flame, nullptr);
  ASSERT_EQ(flame->elements().size(), 2u);
  const auto agg = aggregate(trace);
  std::int64_t prev_self = std::numeric_limits<std::int64_t>::max();
  for (const obs::Json& row : flame->elements()) {
    const std::string name = row.find("span")->as_string();
    ASSERT_TRUE(agg.count(name));
    const NameAgg& a = agg.at(name);
    EXPECT_EQ(row.find("count")->as_int(), a.count);
    EXPECT_EQ(row.find("total_ns")->as_int(), a.total_ns);
    EXPECT_EQ(row.find("self_ns")->as_int(), a.self_ns);
    EXPECT_EQ(row.find("max_ns")->as_int(), a.max_ns);
    EXPECT_EQ(row.find("avg_ns")->as_int(), a.count > 0 ? a.total_ns / a.count : 0);
    EXPECT_LE(row.find("self_ns")->as_int(), prev_self);  // sorted descending
    prev_self = row.find("self_ns")->as_int();
  }
}

TEST_F(AnalysisTest, SlowestSpansSortsByDuration) {
  Tracer::instance().start();
  for (int i = 0; i < 5; ++i) {
    std::string name(1, 's');  // outlives the span
    name += std::to_string(i);
    Span span(name);
  }
  Tracer::instance().stop();
  const Trace trace = exported();
  const auto slow = slowest_spans(trace, 3);
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_GE(slow[0].dur_ns, slow[1].dur_ns);
  EXPECT_GE(slow[1].dur_ns, slow[2].dur_ns);
}

// A design solve labels its own crash start; the lp.solve directly under it
// reports that label, while one under a recovery retry keeps its own.
TEST_F(AnalysisTest, ConvergenceReportTakesTheDesignLabel) {
  Tracer::instance().start();
  {
    Span design("design.solve");
    {
      Span solve("lp.solve");
      solve.attr("warm_start", "accepted");
    }
    {
      Span retry("lp.recovery.retry");
      Span solve("lp.solve");
      solve.attr("warm_start", "repaired");
    }
    design.attr("warm_start", "crash-accepted");
  }
  Tracer::instance().stop();
  const auto reports = convergence_reports(exported(), /*stall_tol=*/1e-9);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].warm_start, "crash-accepted");
  EXPECT_EQ(reports[1].warm_start, "repaired");
}

// Synthetic convergence stream: one lp.solve with a phase child, sampled
// counters showing progress / stall / progress, and refactor spans.
TEST_F(AnalysisTest, ConvergenceReportFindsStallsAndRefactors) {
  Tracer::instance().start();
  {
    Span solve("lp.solve");
    solve.attr("warm_start", "accepted");
    solve.attr("status", "optimal");
    {
      Span phase("lp.phase2");
      { Span refactor("lp.refactor"); }
      { Span refactor("lp.refactor"); }
      const double objectives[] = {10.0, 5.0, 5.0, 5.0, 1.0};
      for (int s = 0; s < 5; ++s) {
        counter("lp.iteration", 32.0 * (s + 1));
        counter("lp.objective", objectives[s]);
        counter("lp.primal_infeas", 0.5 / (s + 1));
        counter("lp.dual_infeas", 0.25 / (s + 1));
      }
    }
  }
  Tracer::instance().stop();
  const Trace trace = exported();
  const auto reports = convergence_reports(trace, /*stall_tol=*/1e-9);
  ASSERT_EQ(reports.size(), 1u);
  const SolveReport& r = reports[0];
  EXPECT_EQ(r.warm_start, "accepted");
  EXPECT_EQ(r.status, "optimal");
  EXPECT_EQ(r.iterations, 160);
  EXPECT_EQ(r.samples, 5);
  EXPECT_EQ(r.refactors, 2);
  EXPECT_DOUBLE_EQ(r.first_objective, 10.0);
  EXPECT_DOUBLE_EQ(r.last_objective, 1.0);
  // Samples 2->3 and 3->4 are flat: two stall windows, one 64-iteration run.
  EXPECT_EQ(r.stall_windows, 2);
  EXPECT_EQ(r.longest_stall_iters, 64);
  EXPECT_DOUBLE_EQ(r.final_primal_infeas, 0.1);
  EXPECT_DOUBLE_EQ(r.final_dual_infeas, 0.05);
}

TEST_F(AnalysisTest, DuplicateIterationSamplesAreNotStalls) {
  Tracer::instance().start();
  {
    Span solve("lp.solve");
    for (int s = 0; s < 2; ++s) {  // same iteration sampled twice
      counter("lp.iteration", 32.0);
      counter("lp.objective", 7.0);
    }
  }
  Tracer::instance().stop();
  const auto reports = convergence_reports(exported());
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].stall_windows, 0);
  EXPECT_EQ(reports[0].longest_stall_iters, 0);
}

TEST_F(AnalysisTest, SweepPointsAndDiff) {
  Tracer::instance().start();
  {
    Span sweep("sweep");
    for (int i = 0; i < 3; ++i) {
      Span point("sweep.point");
      point.attr("index", i);
      point.attr("warm_start", i == 0 ? "cold" : "accepted");
    }
  }
  Tracer::instance().stop();
  const Trace a = exported();
  const auto points = sweep_points(a);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].args.find("warm_start")->as_string(), "cold");
  EXPECT_EQ(points[2].args.find("index")->as_int(), 2);

  // Diff against a trace with a missing name and an extra name.
  Tracer::instance().start();
  {
    Span sweep("sweep");
    Span extra("cold.only");
  }
  Tracer::instance().stop();
  const Trace b = exported();
  const auto rows = diff(a, b);
  ASSERT_EQ(rows.size(), 3u);  // union: sweep, sweep.point, cold.only
  bool saw_point = false, saw_extra = false, saw_both = false;
  for (const DiffRow& row : rows) {
    if (row.name == "sweep.point") {
      saw_point = true;
      EXPECT_TRUE(row.a.has_value());
      EXPECT_FALSE(row.b.has_value());
    } else if (row.name == "cold.only") {
      saw_extra = true;
      EXPECT_FALSE(row.a.has_value());
      EXPECT_TRUE(row.b.has_value());
    } else if (row.name == "sweep") {
      saw_both = true;
      EXPECT_TRUE(row.a.has_value() && row.b.has_value());
    }
  }
  EXPECT_TRUE(saw_point && saw_extra && saw_both);
}

TEST_F(AnalysisTest, LoadTraceRejectsMalformedDocuments) {
  Trace out;
  std::string error;
  EXPECT_FALSE(load_trace(obs::Json(1), &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(load_trace(obs::Json::object(), &out, &error));
}

}  // namespace
}  // namespace tcr::trace
