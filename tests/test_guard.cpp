// tcr::guard — run control and crash-safe checkpointing:
//  * CancelToken budget semantics (deadline, iterations, RSS, signal), the
//    first-reason-wins latch, and its thread-safety (these tests run under
//    TSan in CI),
//  * SignalGuard turning a real SIGTERM into a cooperative cancel,
//  * the append-only journal: round-trip, torn-tail tolerance (every crash
//    shape a kill can leave), hard errors on real corruption,
//  * the sweep checkpoint codec and its refusal to parse any truncation,
//  * the §5.3 degradation post-pass (eq. 14 interpolation arithmetic),
//  * a budget-cut sweep journaled and resumed, reproducing the
//    uninterrupted point series bit-for-bit.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "tcr/core/tradeoff.hpp"
#include "tcr/graph/torus.hpp"
#include "tcr/guard/guard.hpp"
#include "tcr/guard/journal.hpp"
#include "tcr/lp/simplex.hpp"

namespace tcr::guard {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "guard_" + name;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---- CancelToken ---------------------------------------------------------

TEST(CancelToken, DefaultTokenNeverFires) {
  CancelToken token;
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(token.check());
  token.charge_iterations(1 << 20);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), StopReason::None);
  EXPECT_TRUE(token.note().empty());
}

TEST(CancelToken, ExplicitCancelLatchesFirstReason) {
  CancelToken token;
  token.cancel(StopReason::Signal);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StopReason::Signal);
  // Later reasons must not overwrite the first.
  token.cancel(StopReason::Deadline);
  EXPECT_EQ(token.reason(), StopReason::Signal);
  EXPECT_TRUE(token.check());
}

TEST(CancelToken, DeadlineFires) {
  RunBudget budget;
  budget.deadline_seconds = 1e-4;
  CancelToken token(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(token.check());
  EXPECT_EQ(token.reason(), StopReason::Deadline);
  EXPECT_NE(token.note().find("deadline"), std::string::npos) << token.note();
}

TEST(CancelToken, IterationBudgetFires) {
  RunBudget budget;
  budget.max_iterations = 100;
  CancelToken token(budget);
  token.charge_iterations(96);
  EXPECT_FALSE(token.cancelled());
  token.charge_iterations(16);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StopReason::Iterations);
  EXPECT_EQ(token.iterations_used(), 112);
  EXPECT_NE(token.note().find("iteration budget"), std::string::npos) << token.note();
}

TEST(CancelToken, PartialIterationWindowIsFlushedOnOptimalExit) {
  // The simplex charges the token at 16-iteration safepoints; a solve that
  // exits Optimal mid-window must flush the remainder in finish(). With a
  // cap of 1 the flush itself latches the token, so (a) iterations_used()
  // equals the solve's exact pivot count, not a multiple of 16, and (b) the
  // next solve against the same token is refused up front.
  lp::Model m;
  m.add_col(0.0, lp::kInf, -1.0);
  m.add_col(0.0, lp::kInf, -2.0);
  const int r0 = m.add_row(lp::RowType::LE, 4.0);
  m.add_term(r0, 0, 1.0);
  m.add_term(r0, 1, 1.0);
  const int r1 = m.add_row(lp::RowType::LE, 3.0);
  m.add_term(r1, 1, 1.0);

  RunBudget budget;
  budget.max_iterations = 1;
  CancelToken token(budget);
  lp::SimplexOptions opts;
  opts.cancel = &token;
  const lp::Solution sol = lp::solve(m, opts);
  ASSERT_EQ(sol.status, lp::Status::Optimal);
  ASSERT_GT(sol.iterations, 0);
  ASSERT_LT(sol.iterations, 16) << "model too big to exit inside one charge window";
  EXPECT_EQ(token.iterations_used(), sol.iterations);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StopReason::Iterations);

  const lp::Solution refused = lp::solve(m, opts);
  EXPECT_EQ(refused.status, lp::Status::Cancelled);
  EXPECT_EQ(token.iterations_used(), sol.iterations)
      << "a refused solve must not charge iterations";
}

TEST(CancelToken, MemoryCapFires) {
  RunBudget budget;
  budget.max_rss_kb = 1;  // any live process exceeds 1 KB peak RSS
  CancelToken token(budget);
  bool fired = false;
  // The RSS poll runs every 64th check; well within 200 checks it must see
  // the process over the 1 KB cap.
  for (int i = 0; i < 200 && !fired; ++i) fired = token.check();
  EXPECT_TRUE(fired);
  EXPECT_EQ(token.reason(), StopReason::Memory);
  EXPECT_NE(token.note().find("RSS"), std::string::npos) << token.note();
}

TEST(CancelToken, UnlimitedBudgetReportsUnlimited) {
  EXPECT_TRUE(RunBudget{}.unlimited());
  RunBudget b;
  b.max_iterations = 5;
  EXPECT_FALSE(b.unlimited());
}

// ---- CancelToken concurrency (exercised under TSan in CI) ----------------

TEST(CancelTokenConcurrency, ManyCheckersOneCanceller) {
  CancelToken token;
  std::atomic<int> stopped{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&token, &stopped] {
      while (!token.check()) token.charge_iterations(1);
      stopped.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  token.cancel(StopReason::Signal);
  for (auto& w : workers) w.join();
  EXPECT_EQ(stopped.load(), 4);
  EXPECT_EQ(token.reason(), StopReason::Signal);
}

TEST(CancelTokenConcurrency, RacingCancelsKeepExactlyOneReason) {
  const StopReason reasons[] = {StopReason::Deadline, StopReason::Iterations,
                                StopReason::Memory, StopReason::Signal};
  for (int round = 0; round < 20; ++round) {
    CancelToken token;
    std::vector<std::thread> cancellers;
    for (const StopReason r : reasons) {
      cancellers.emplace_back([&token, r] { token.cancel(r); });
    }
    for (auto& c : cancellers) c.join();
    EXPECT_TRUE(token.cancelled());
    const StopReason won = token.reason();
    EXPECT_TRUE(won == StopReason::Deadline || won == StopReason::Iterations ||
                won == StopReason::Memory || won == StopReason::Signal);
    EXPECT_FALSE(token.note().empty());
  }
}

TEST(CancelTokenConcurrency, ConcurrentChargesSumExactly) {
  CancelToken token;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&token] {
      for (int i = 0; i < 1000; ++i) token.charge_iterations(3);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(token.iterations_used(), 4 * 1000 * 3);
}

// ---- SignalGuard ---------------------------------------------------------

TEST(SignalGuard, TermSignalLatchesTokenCooperatively) {
  CancelToken token;
  {
    SignalGuard hook(token);
    ASSERT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), StopReason::Signal);
    EXPECT_TRUE(SignalGuard::signalled());
    EXPECT_EQ(SignalGuard::signal_number(), SIGTERM);
  }
  // Guard destroyed: a fresh one can be installed again.
  CancelToken token2;
  SignalGuard hook2(token2);
  EXPECT_FALSE(token2.cancelled());
}

// ---- journal -------------------------------------------------------------

TEST(Journal, RoundTripsBinaryRecords) {
  const std::string path = temp_path("roundtrip.jnl");
  std::remove(path.c_str());
  std::vector<std::string> payloads = {"alpha", std::string("\0\x01\xff zero", 8), ""};
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    for (const auto& p : payloads) ASSERT_TRUE(writer.append(p));
    EXPECT_TRUE(writer.ok());
  }
  const JournalContents contents = read_journal(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  EXPECT_FALSE(contents.truncated_tail);
  EXPECT_EQ(contents.records, payloads);
}

TEST(Journal, EmptyJournalIsValid) {
  const std::string path = temp_path("empty.jnl");
  std::remove(path.c_str());
  JournalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(path, &error)) << error;
  writer.close();
  const JournalContents contents = read_journal(path);
  EXPECT_TRUE(contents.ok) << contents.error;
  EXPECT_TRUE(contents.records.empty());
}

TEST(Journal, MissingFileIsHardError) {
  const JournalContents contents = read_journal(temp_path("does_not_exist.jnl"));
  EXPECT_FALSE(contents.ok);
  EXPECT_FALSE(contents.error.empty());
}

TEST(Journal, BadMagicIsHardError) {
  const std::string path = temp_path("badmagic.jnl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTAJNL0somethingelse";
  }
  const JournalContents contents = read_journal(path);
  EXPECT_FALSE(contents.ok);
  EXPECT_NE(contents.error.find("magic"), std::string::npos) << contents.error;
}

TEST(Journal, TornHeaderTailIsToleratedAndRepairedOnReopen) {
  const std::string path = temp_path("tornheader.jnl");
  std::remove(path.c_str());
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    ASSERT_TRUE(writer.append("first"));
    ASSERT_TRUE(writer.append("second"));
  }
  {
    // Kill mid-header: three stray bytes after the last good record.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("xyz", 3);
  }
  JournalContents contents = read_journal(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  EXPECT_TRUE(contents.truncated_tail);
  EXPECT_EQ(contents.records, (std::vector<std::string>{"first", "second"}));

  // Reopen truncates the torn tail; appends continue after the good prefix.
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    ASSERT_TRUE(writer.append("third"));
  }
  contents = read_journal(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  EXPECT_FALSE(contents.truncated_tail);
  EXPECT_EQ(contents.records, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(Journal, TornPayloadTailIsTolerated) {
  const std::string path = temp_path("tornpayload.jnl");
  std::remove(path.c_str());
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    ASSERT_TRUE(writer.append("kept"));
  }
  {
    // A full header promising 100 payload bytes, then only 10: the append
    // raced the kill.
    const std::string payload100(100, 'p');
    const std::uint32_t len = 100;
    const std::uint32_t crc = crc32(payload100.data(), payload100.size());
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(&len), 4);
    out.write(reinterpret_cast<const char*>(&crc), 4);
    out.write(payload100.data(), 10);
  }
  const JournalContents contents = read_journal(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  EXPECT_TRUE(contents.truncated_tail);
  EXPECT_EQ(contents.records, (std::vector<std::string>{"kept"}));
}

TEST(Journal, CrcMismatchOnFinalRecordIsTolerated) {
  const std::string path = temp_path("tailcrc.jnl");
  std::remove(path.c_str());
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    ASSERT_TRUE(writer.append("kept"));
    ASSERT_TRUE(writer.append("mangled"));
  }
  {
    // Flip the last payload byte of the final record.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekg(static_cast<std::streamoff>(size) - 1);
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(size) - 1);
    f.put(static_cast<char>(c ^ 0x40));
  }
  const JournalContents contents = read_journal(path);
  ASSERT_TRUE(contents.ok) << contents.error;
  EXPECT_TRUE(contents.truncated_tail);
  EXPECT_EQ(contents.records, (std::vector<std::string>{"kept"}));
}

TEST(Journal, MidFileCorruptionIsHardPositionBearingError) {
  const std::string path = temp_path("midfile.jnl");
  std::remove(path.c_str());
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path, &error)) << error;
    ASSERT_TRUE(writer.append("first-record-payload"));
    ASSERT_TRUE(writer.append("second"));
  }
  {
    // Flip a byte inside the *first* record's payload (offset 16: 8 magic +
    // 8 header): not a torn tail, lost bytes in the middle.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16);
    f.put('X');
  }
  const JournalContents contents = read_journal(path);
  EXPECT_FALSE(contents.ok);
  EXPECT_NE(contents.error.find("offset"), std::string::npos) << contents.error;
}

// ---- sweep checkpoint codec ----------------------------------------------

TradeoffPoint sample_point() {
  TradeoffPoint pt;
  pt.locality = 1.375;
  pt.capacity_fraction = 0.53125;
  pt.status = lp::Status::Optimal;
  pt.note = "note text";
  pt.warm_start = "accepted";
  pt.provenance = "measured";
  pt.iterations = 4242;
  pt.certificate.checked = true;
  pt.certificate.pass = true;
  pt.certificate.primal_residual = 1e-12;
  pt.certificate.duality_gap = 3e-11;
  pt.certificate.reason = "";
  return pt;
}

lp::Basis sample_basis() {
  lp::Basis basis;
  basis.stat = {0, 1, 2, 3, 0, 1};
  basis.basic = {5, 9, 11};
  basis.weights = {2.5, 0.0, 1.0 / 3.0};
  return basis;
}

TEST(SweepCheckpoint, RoundTripsBitExact) {
  const TradeoffPoint pt = sample_point();
  const lp::Basis basis = sample_basis();
  const std::string payload = SweepCheckpoint::encode(7, pt, basis);

  int index = -1;
  TradeoffPoint got;
  lp::Basis got_basis;
  ASSERT_TRUE(SweepCheckpoint::decode(payload, &index, &got, &got_basis));
  EXPECT_EQ(index, 7);
  EXPECT_TRUE(bits_equal(got.locality, pt.locality));
  EXPECT_TRUE(bits_equal(got.capacity_fraction, pt.capacity_fraction));
  EXPECT_EQ(got.status, pt.status);
  EXPECT_EQ(got.note, pt.note);
  EXPECT_EQ(got.warm_start, pt.warm_start);
  EXPECT_EQ(got.provenance, pt.provenance);
  EXPECT_EQ(got.iterations, pt.iterations);
  EXPECT_EQ(got.certificate.checked, pt.certificate.checked);
  EXPECT_EQ(got.certificate.pass, pt.certificate.pass);
  EXPECT_TRUE(bits_equal(got.certificate.primal_residual, pt.certificate.primal_residual));
  EXPECT_TRUE(bits_equal(got.certificate.duality_gap, pt.certificate.duality_gap));
  EXPECT_EQ(got_basis.stat, basis.stat);
  EXPECT_EQ(got_basis.basic, basis.basic);
  ASSERT_EQ(got_basis.weights.size(), basis.weights.size());
  for (std::size_t i = 0; i < basis.weights.size(); ++i) {
    EXPECT_TRUE(bits_equal(got_basis.weights[i], basis.weights[i])) << "weight " << i;
  }
}

TEST(SweepCheckpoint, UnsolvedNaNRoundTrips) {
  TradeoffPoint pt = sample_point();
  pt.capacity_fraction = std::numeric_limits<double>::quiet_NaN();
  pt.status = lp::Status::IterationLimit;
  const std::string payload = SweepCheckpoint::encode(0, pt, {});
  int index = -1;
  TradeoffPoint got;
  lp::Basis got_basis;
  ASSERT_TRUE(SweepCheckpoint::decode(payload, &index, &got, &got_basis));
  EXPECT_TRUE(std::isnan(got.capacity_fraction));
  EXPECT_EQ(got.status, lp::Status::IterationLimit);
  EXPECT_TRUE(got_basis.stat.empty());
}

// A point that exported no basis round-trips to an empty one, also when
// decoded over a basis that held entries.
TEST(SweepCheckpoint, EmptyBasisRoundTrips) {
  const std::string payload = SweepCheckpoint::encode(2, sample_point(), lp::Basis{});
  for (const lp::Basis& before : {lp::Basis{}, sample_basis()}) {
    int index = -1;
    TradeoffPoint got;
    lp::Basis got_basis = before;
    ASSERT_TRUE(SweepCheckpoint::decode(payload, &index, &got, &got_basis));
    EXPECT_EQ(index, 2);
    EXPECT_TRUE(got_basis.empty());
    EXPECT_TRUE(got_basis.stat.empty());
  }
}

TEST(SweepCheckpoint, EveryTruncationIsRejected) {
  const std::string payload = SweepCheckpoint::encode(3, sample_point(), sample_basis());
  int index;
  TradeoffPoint pt;
  lp::Basis basis;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(SweepCheckpoint::decode(payload.substr(0, len), &index, &pt, &basis))
        << "truncation to " << len << " of " << payload.size() << " bytes parsed";
  }
}

// Version 2 added the basis's dual steepest-edge weights. A version-1
// payload, the same fields without the weight list, is refused: resuming
// from it would start the next point without the weights the run had.
TEST(SweepCheckpoint, VersionOnePayloadIsRefused) {
  lp::Basis basis = sample_basis();
  basis.weights.clear();
  std::string v1 = SweepCheckpoint::encode(3, sample_point(), basis);
  v1.resize(v1.size() - sizeof(std::uint32_t));  // no weight count
  const std::uint32_t version = 1;
  std::memcpy(v1.data(), &version, sizeof version);
  int index;
  TradeoffPoint pt;
  lp::Basis got;
  EXPECT_FALSE(SweepCheckpoint::decode(v1, &index, &pt, &got));
  // Nor is a version-2 body stamped with version 1.
  std::string stamped = SweepCheckpoint::encode(3, sample_point(), sample_basis());
  std::memcpy(stamped.data(), &version, sizeof version);
  EXPECT_FALSE(SweepCheckpoint::decode(stamped, &index, &pt, &got));
}

TEST(SweepCheckpoint, TrailingBytesAndBadVersionRejected) {
  std::string payload = SweepCheckpoint::encode(3, sample_point(), sample_basis());
  int index;
  TradeoffPoint pt;
  lp::Basis basis;
  EXPECT_FALSE(SweepCheckpoint::decode(payload + "x", &index, &pt, &basis));
  payload[0] = static_cast<char>(payload[0] + 1);
  EXPECT_FALSE(SweepCheckpoint::decode(payload, &index, &pt, &basis));
}

// ---- §5.3 degradation post-pass ------------------------------------------

std::vector<TradeoffPoint> five_point_series() {
  std::vector<TradeoffPoint> pts(5);
  const double locs[] = {1.0, 1.25, 1.5, 1.75, 2.0};
  const double caps[] = {0.25, 0.35, 0.40, 0.45, 0.50};
  for (int i = 0; i < 5; ++i) {
    pts[i].locality = locs[i];
    pts[i].capacity_fraction = caps[i];
    pts[i].status = lp::Status::Optimal;
    pts[i].certificate.checked = true;
    pts[i].certificate.pass = true;
  }
  return pts;
}

TEST(FillDegradedPoints, BudgetStoppedPointInterpolatesEq14) {
  auto pts = five_point_series();
  pts[2].status = lp::Status::Cancelled;
  pts[2].capacity_fraction = std::numeric_limits<double>::quiet_NaN();
  fill_degraded_points(pts, StopReason::Deadline);

  EXPECT_EQ(pts[2].provenance, "degraded");
  EXPECT_TRUE(pts[2].degraded());
  // Anchors are points 1 and 3; alpha = (1.75 - 1.5) / (1.75 - 1.25) = 0.5,
  // eq. 14: 1 / (0.5/0.35 + 0.5/0.45) — the harmonic mean of the anchors.
  const double expect = 1.0 / (0.5 / 0.35 + 0.5 / 0.45);
  EXPECT_NEAR(pts[2].capacity_fraction, expect, 1e-12);
  EXPECT_NE(pts[2].note.find("interpolated (eq. 14)"), std::string::npos) << pts[2].note;
  EXPECT_NE(pts[2].note.find("1 and 3"), std::string::npos) << pts[2].note;
  // Untouched neighbors stay measured.
  EXPECT_EQ(pts[1].provenance, "measured");
}

TEST(FillDegradedPoints, LadderExhaustionDegradesRegardlessOfReason) {
  auto pts = five_point_series();
  pts[1].status = lp::Status::Numerical;
  pts[1].capacity_fraction = std::numeric_limits<double>::quiet_NaN();
  fill_degraded_points(pts, StopReason::None);
  EXPECT_EQ(pts[1].provenance, "degraded");
  EXPECT_TRUE(std::isfinite(pts[1].capacity_fraction));
}

TEST(FillDegradedPoints, SignalCancelledPointsAreSkippedNotInterpolated) {
  auto pts = five_point_series();
  pts[3].status = lp::Status::Cancelled;
  pts[3].capacity_fraction = std::numeric_limits<double>::quiet_NaN();
  fill_degraded_points(pts, StopReason::Signal);
  EXPECT_EQ(pts[3].provenance, "skipped");
  // A skipped point keeps no interpolated value: a resumed run computes it.
  EXPECT_TRUE(std::isnan(pts[3].capacity_fraction));
}

TEST(FillDegradedPoints, OneSidedPointStaysNaNButFlagged) {
  auto pts = five_point_series();
  pts[3].status = lp::Status::Cancelled;
  pts[4].status = lp::Status::Cancelled;
  pts[3].capacity_fraction = std::numeric_limits<double>::quiet_NaN();
  pts[4].capacity_fraction = std::numeric_limits<double>::quiet_NaN();
  fill_degraded_points(pts, StopReason::Iterations);
  // Point 3 has anchors 2 and... none to the right — 4 is degraded too.
  EXPECT_EQ(pts[4].provenance, "degraded");
  EXPECT_TRUE(std::isnan(pts[4].capacity_fraction));
  EXPECT_NE(pts[4].note.find("no certified neighbors"), std::string::npos) << pts[4].note;
}

TEST(FillDegradedPoints, UncertifiedNeighborsAreNotAnchors) {
  auto pts = five_point_series();
  pts[1].certificate.pass = false;  // failed certificate: not a measurement
  pts[2].status = lp::Status::Cancelled;
  pts[2].capacity_fraction = std::numeric_limits<double>::quiet_NaN();
  fill_degraded_points(pts, StopReason::Deadline);
  // The left anchor must skip point 1 and use point 0.
  const double alpha = (1.75 - 1.5) / (1.75 - 1.0);
  const double expect = 1.0 / (alpha / 0.25 + (1.0 - alpha) / 0.45);
  EXPECT_NEAR(pts[2].capacity_fraction, expect, 1e-12);
  EXPECT_NE(pts[2].note.find("0 and 3"), std::string::npos) << pts[2].note;
}

// ---- budget-cut sweep: journal + resume == uninterrupted run -------------

TEST(SweepResumeTest, BudgetCutJournalThenResumeReproducesBitwise) {
  const Torus torus(4);
  const auto grid = locality_grid(1.0, 2.0, 5);
  const std::string path = temp_path("sweep.jnl");
  std::remove(path.c_str());

  // Reference: the uninterrupted warm sweep.
  const auto ref = worst_case_tradeoff(torus, grid);
  ASSERT_EQ(ref.size(), 5u);
  long total_iterations = 0;
  for (const auto& pt : ref) {
    ASSERT_EQ(pt.status, lp::Status::Optimal);
    total_iterations += pt.iterations;
  }

  // Budgeted run, cut deterministically inside point 1: the solver charges
  // the token at every 16-iteration safepoint and flushes the partial
  // window on solve exit, so point 0 charges exactly `it0` and fits the
  // budget, while point 1 reaches its first safepoint with the budget
  // already down to 16 and must blow it mid-solve — provided it runs past
  // one full window (the ASSERT below; warm-started tail points can be
  // near-free and finish before any safepoint). Completed points are
  // journaled, the rest labeled degraded.
  ASSERT_GE(ref[1].iterations, 17) << "point 1 too cheap to guarantee an in-solve cut";
  CancelToken token;
  RunBudget budget;
  budget.max_iterations = ref[0].iterations + 16;
  ASSERT_LT(budget.max_iterations, total_iterations);
  token.arm(budget);
  JournalWriter journal;
  std::string error;
  ASSERT_TRUE(journal.open(path, &error)) << error;
  lp::SimplexOptions opts;
  opts.cancel = &token;
  SweepConfig cut_cfg;
  cut_cfg.cancel = &token;
  cut_cfg.journal = &journal;
  const auto cut = worst_case_tradeoff(torus, grid, opts, nullptr, cut_cfg);
  journal.close();
  ASSERT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), StopReason::Iterations);

  std::size_t measured = 0, degraded = 0;
  for (const auto& pt : cut) {
    if (pt.provenance == "measured" && pt.status == lp::Status::Optimal) {
      ++measured;
    } else {
      // Iteration budget is a degrade-class stop: nothing may be "skipped".
      EXPECT_EQ(pt.provenance, "degraded");
      EXPECT_EQ(pt.status, lp::Status::Cancelled);
      EXPECT_FALSE(pt.note.empty());
      ++degraded;
    }
  }
  EXPECT_GE(measured, 1u);
  EXPECT_GE(degraded, 1u);
  EXPECT_EQ(measured + degraded, cut.size());

  // Resume: replay the journal, re-chain warm starts, finish the grid.
  SweepResume resume;
  bool torn = false;
  ASSERT_TRUE(load_sweep_resume(path, &resume, &torn, &error)) << error;
  EXPECT_FALSE(torn);
  EXPECT_EQ(resume.points.size(), measured);

  SweepConfig resume_cfg;
  resume_cfg.resume = &resume;
  const auto resumed = worst_case_tradeoff(torus, grid, {}, nullptr, resume_cfg);
  ASSERT_EQ(resumed.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(resumed[i].status, lp::Status::Optimal) << "point " << i;
    EXPECT_TRUE(bits_equal(resumed[i].capacity_fraction, ref[i].capacity_fraction))
        << "point " << i << ": " << resumed[i].capacity_fraction << " vs "
        << ref[i].capacity_fraction;
    EXPECT_EQ(resumed[i].iterations, ref[i].iterations) << "point " << i;
    EXPECT_EQ(resumed[i].provenance, resume.has(static_cast<int>(i)) ? "resumed" : "measured")
        << "point " << i;
  }
}

// A sweep resumed after a warm point re-solves the next one from the
// journaled basis and its dual steepest-edge weights, so it pivots exactly
// as the uninterrupted run did.
TEST(SweepResumeTest, ResumeAfterWarmPointReproducesItsPivots) {
  const Torus torus(4);
  const auto grid = locality_grid(1.0, 2.0, 5);
  const std::string path = temp_path("warm-sweep.jnl");
  std::remove(path.c_str());
  JournalWriter journal;
  std::string error;
  ASSERT_TRUE(journal.open(path, &error)) << error;
  SweepConfig cfg;
  cfg.journal = &journal;
  const auto ref = worst_case_tradeoff(torus, grid, {}, nullptr, cfg);
  journal.close();

  SweepResume resume;
  bool torn = false;
  ASSERT_TRUE(load_sweep_resume(path, &resume, &torn, &error)) << error;
  ASSERT_EQ(resume.points.size(), ref.size());
  // Point 1 was a dual restart: its journaled basis carries weights.
  ASSERT_FALSE(resume.points.at(1).second.weights.empty());
  for (int i = 2; i < static_cast<int>(ref.size()); ++i) resume.points.erase(i);

  SweepConfig resume_cfg;
  resume_cfg.resume = &resume;
  const auto resumed = worst_case_tradeoff(torus, grid, {}, nullptr, resume_cfg);
  ASSERT_EQ(resumed.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(bits_equal(resumed[i].capacity_fraction, ref[i].capacity_fraction))
        << "point " << i;
    EXPECT_EQ(resumed[i].iterations, ref[i].iterations) << "point " << i;
  }
}

}  // namespace
}  // namespace tcr::guard
