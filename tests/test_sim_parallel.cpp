// Parallel (sharded) simulator: bitwise equality of every statistic across
// shard and thread counts, watchdog and fault-window behavior under
// sharding, the engine's incrementally kept arbitration masks and credit
// snapshot against a from-scratch rebuild, mailbox handoffs under real
// threads (the TSan job runs the ShardedSimTsan suite), and the
// measurement-window accounting contract —
// partial windows are flushed on a natural phase end but discarded on
// cancellation, so cancelled runs report the same rates an uninterrupted
// run would over the same full-window prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "tcr/fault/fault.hpp"
#include "tcr/guard/guard.hpp"
#include "tcr/guard/journal.hpp"
#include "tcr/telemetry/telemetry.hpp"
#include "tcr/metrics/worst_case.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/routing/dor.hpp"
#include "tcr/sim/sharding.hpp"
#include "tcr/sim/simulator.hpp"
#include "tcr/traffic/patterns.hpp"

namespace tcr {
namespace {

// Bitwise comparison of two runs. Integer fields are exact by construction;
// the doubles are exact too because every input to them (window counts,
// latency sums, histogram bucket counts) is integral and accumulated in a
// shard-count-independent order — that is the determinism claim under test.
void expect_same_stats(const SimStats& a, const SimStats& b, const std::string& what) {
  EXPECT_EQ(a.deadlocked, b.deadlocked) << what;
  EXPECT_EQ(a.cancelled, b.cancelled) << what;
  EXPECT_EQ(a.injected, b.injected) << what;
  EXPECT_EQ(a.ejected, b.ejected) << what;
  EXPECT_EQ(a.cycles_run, b.cycles_run) << what;
  EXPECT_EQ(a.measured_cycles, b.measured_cycles) << what;
  EXPECT_EQ(a.flit_cycles, b.flit_cycles) << what;
  EXPECT_EQ(a.offered_rate, b.offered_rate) << what;
  EXPECT_EQ(a.accepted_rate, b.accepted_rate) << what;
  EXPECT_EQ(a.avg_latency, b.avg_latency) << what;
  EXPECT_EQ(a.max_latency, b.max_latency) << what;
  EXPECT_EQ(a.p50_latency, b.p50_latency) << what;
  EXPECT_EQ(a.p95_latency, b.p95_latency) << what;
  EXPECT_EQ(a.p99_latency, b.p99_latency) << what;
  ASSERT_EQ(a.windows.size(), b.windows.size()) << what;
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].cycles, b.windows[i].cycles) << what << " window " << i;
    EXPECT_EQ(a.windows[i].injected, b.windows[i].injected) << what << " window " << i;
    EXPECT_EQ(a.windows[i].ejected, b.windows[i].ejected) << what << " window " << i;
  }
}

SimConfig matrix_config() {
  SimConfig cfg;
  cfg.vcs = 4;
  cfg.warmup_cycles = 150;
  cfg.measure_cycles = 900;
  cfg.drain_cycles = 1500;
  cfg.stats_window = 200;
  cfg.deadlock_threshold = 600;
  return cfg;
}

// The headline determinism property: for k in {4, 8} and uniform / tornado /
// adversarial worst-case traffic, every shard count produces statistics
// bitwise identical to the unsharded run — windows included, so even the
// per-window injection/ejection sampling is invariant.
TEST(ShardMatrix, ShardCountNeverChangesAnyStatistic) {
  for (const int k : {4, 8}) {
    const Torus t(k);
    const TorusRouting dor = make_dor(t);
    dor.load_table();
    const std::vector<std::pair<std::string, std::vector<int>>> patterns = {
        {"uniform", {}},
        {"tornado", tornado_permutation(t)},
        {"worst-case", worst_case(dor).permutation},
    };
    for (const auto& [name, perm] : patterns) {
      SimConfig cfg = matrix_config();
      const SimStats base = simulate(dor, 0.45, perm, cfg);
      EXPECT_GT(base.ejected, 0) << "k=" << k << " " << name;
      for (const int shards : {2, 4, 7}) {
        cfg.shards = shards;
        const SimStats sharded = simulate(dor, 0.45, perm, cfg);
        expect_same_stats(base, sharded,
                          "k=" + std::to_string(k) + " " + name + " shards=" +
                              std::to_string(shards));
      }
    }
  }
}

// The deadlock watchdog must honor its threshold under sharding exactly as
// it does serially: with every link down nothing ever moves, and the
// coordinator's serial tick fires the watchdog right after the configured
// number of quiet cycles regardless of thread/shard decomposition.
TEST(ShardedSim, WatchdogFiresAtThresholdUnderSharding) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  fault::SimFaultPlan all_down;
  for (int c = 0; c < t.num_channels(); ++c) {
    fault::LinkFault f;
    f.channel = c;
    f.from_cycle = 0;
    f.until_cycle = 1L << 30;
    all_down.links.push_back(f);
  }
  SimConfig cfg;
  cfg.vcs = 2;
  cfg.warmup_cycles = 700;
  cfg.measure_cycles = 100;
  cfg.drain_cycles = 100;
  cfg.deadlock_threshold = 120;
  cfg.faults = &all_down;
  cfg.threads = 2;
  cfg.shards = 5;
  const auto stats = simulate(dor, 1.0, {}, cfg);
  EXPECT_TRUE(stats.deadlocked);
  EXPECT_GE(stats.cycles_run, 120);
  EXPECT_LE(stats.cycles_run, 122);
}

// A fault plan whose link-down window covers part of the run must leave
// identical fingerprints (counts, rates, latencies) for serial and sharded
// execution — the per-cycle fault lookups happen inside the phase kernels,
// so this pins that they are applied on the same cycles in both modes.
TEST(ShardedSim, FaultWindowsMatchSerialBitwise) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  fault::SimFaultPlan plan;
  for (const int c : {3, 17, 40, 41, 55}) {
    fault::LinkFault f;
    f.channel = c;
    f.from_cycle = 200;
    f.until_cycle = 600;
    plan.links.push_back(f);
  }
  SimConfig cfg = matrix_config();
  cfg.faults = &plan;
  const SimStats base = simulate(dor, 0.4, {}, cfg);
  EXPECT_GT(base.ejected, 0);
  cfg.shards = 4;
  const SimStats sharded = simulate(dor, 0.4, {}, cfg);
  expect_same_stats(base, sharded, "faulted shards=4");
}

// Oracle for the engine's incrementally kept state: want/want_src and
// their downstream buffers rebuilt from the ring fronts and source heads,
// the candidate and eject masks rebuilt from want/want_src, and (after
// phase 1) the occupancy snapshot rebuilt from the ring sizes.
::testing::AssertionResult engine_state_consistent(const sim_detail::Engine& eng,
                                                   bool after_phase1) {
  using sim_detail::Engine;
  using sim_detail::kNoFlit;
  const int n_nodes = eng.torus->num_nodes();
  const int slots = kNumDirs * eng.vcs;
  for (int n = 0; n < n_nodes; ++n) {
    const sim_detail::FlitPool& pool = eng.shards[eng.layout.shard_of_node[n]].pool;
    const std::int32_t head = eng.src_queues.head[n];
    const Engine::Want src = head == kNoFlit ? Engine::kNoWant : eng.next_want(pool, head);
    const std::int32_t want_src = src.channel;
    if (eng.want_src[n] != want_src || eng.want_src_buf[n] != src.buf) {
      return ::testing::AssertionFailure()
             << "want_src[" << n << "] = " << eng.want_src[n] << " into buffer "
             << eng.want_src_buf[n] << ", source head wants " << want_src << " into " << src.buf;
    }
    std::uint32_t cand[kNumDirs] = {0, 0, 0, 0};
    std::uint32_t eject = 0;
    if (want_src >= 0) cand[want_src & 3] |= 1u;
    for (int i = 0; i < slots; ++i) {
      const int buf = eng.in_buf[static_cast<std::size_t>(n) * slots + i];
      const Engine::Want front =
          eng.rings.empty(buf) ? Engine::kNoWant : eng.next_want(pool, eng.rings.front(buf));
      const std::int32_t w = front.channel;
      if (eng.want[buf] != w || eng.want_buf[buf] != front.buf) {
        return ::testing::AssertionFailure()
               << "want[" << buf << "] = " << eng.want[buf] << " into buffer " << eng.want_buf[buf]
               << ", ring front wants " << w << " into " << front.buf;
      }
      if (w >= 0) cand[w & 3] |= 1u << (i + 1);
      if (w == Engine::kWantEject) eject |= 1u << i;
      if (after_phase1 && eng.occ[buf] != eng.rings.size(buf)) {
        return ::testing::AssertionFailure() << "occ[" << buf << "] = " << eng.occ[buf]
                                             << ", ring holds " << eng.rings.size(buf);
      }
    }
    for (int d = 0; d < kNumDirs; ++d) {
      if (eng.cand[static_cast<std::size_t>(n) * kNumDirs + d] != cand[d]) {
        return ::testing::AssertionFailure()
               << "cand of node " << n << " dir " << d << " = "
               << eng.cand[static_cast<std::size_t>(n) * kNumDirs + d] << ", rebuilt " << cand[d];
      }
    }
    if (eng.eject_mask[n] != eject) {
      return ::testing::AssertionFailure() << "eject_mask[" << n << "] = " << eng.eject_mask[n]
                                           << ", rebuilt " << eject;
    }
  }
  return ::testing::AssertionSuccess();
}

// Steps the phase kernels directly for 2,000 cycles (injecting for the
// first 1,500, then draining) and checks the oracle after every phase.
void step_against_oracle(int k, int shards, double rate, const fault::SimFaultPlan* faults) {
  const Torus t(k);
  const TorusRouting dor = make_dor(t);
  TrafficGen gen(dor, rate, 17);
  gen.prepare();
  sim_detail::Engine eng;
  eng.init(t, gen, faults, /*vcs=*/4, /*depth=*/4, shards, 17, std::max(1, gen.max_path_len()));
  const obs::Histogram geometry(1.0, 1.2);
  eng.run_latency = &geometry;
  eng.measuring = true;
  const std::string what = "k=" + std::to_string(k) + " shards=" + std::to_string(shards) +
                           " rate=" + std::to_string(rate) + (faults ? " faulted" : "");
  for (int cycle = 0; cycle < 2000; ++cycle) {
    eng.injecting = cycle < 1500;
    for (int s = 0; s < shards; ++s) eng.phase1(s);
    ASSERT_TRUE(engine_state_consistent(eng, /*after_phase1=*/true))
        << what << " cycle " << cycle << " after phase 1";
    for (int s = 0; s < shards; ++s) eng.phase2(s);
    ASSERT_TRUE(engine_state_consistent(eng, /*after_phase1=*/false))
        << what << " cycle " << cycle << " after phase 2";
    ++eng.cycle;
  }
  long ejected = 0, link_down = 0, stalls = 0;
  for (const auto& sh : eng.shards) {
    ejected += sh.ejected;
    link_down += sh.link_down_cycles;
    stalls += sh.credit_stalls;
  }
  EXPECT_GT(ejected, 0) << what;
  if (faults != nullptr) {
    EXPECT_GT(link_down, 0) << what;
    EXPECT_GT(stalls, 0) << what;
  }
}

TEST(ShardedSim, IncrementalMasksAndSnapshotMatchOracle) {
  for (const int k : {4, 8}) {
    for (const int shards : {1, 3, 4}) {
      for (const double rate : {0.3, 0.95}) {
        step_against_oracle(k, shards, rate, nullptr);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(ShardedSim, IncrementalMasksAndSnapshotMatchOracleUnderFaults) {
  const Torus t(4);
  fault::SimFaultPlan plan;
  for (const int c : {3, 17, 40, 41, 55}) {
    fault::LinkFault f;
    f.channel = c;
    f.from_cycle = 200;
    f.until_cycle = 700;
    plan.links.push_back(f);
  }
  for (int c = 0; c < t.num_channels(); c += 5) {
    fault::CreditStall f;
    f.channel = c;
    f.vc = c % 2 == 0 ? -1 : 1;
    f.from_cycle = 300 + c;
    f.until_cycle = 900 + c;
    plan.stalls.push_back(f);
  }
  step_against_oracle(4, 3, 0.95, &plan);
}

// Real worker threads exchanging flits through the (src, dst)-shard
// mailboxes around the epoch barriers. The CI thread-sanitizer job runs
// this suite (--gtest_filter='ShardedSimTsan.*') to certify the handoff
// protocol data-race-free; the equality check doubles as a correctness
// pin under genuine concurrency.
TEST(ShardedSimTsan, MailboxHandoffsAreRaceFreeAndDeterministic) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  SimConfig cfg;
  cfg.vcs = 4;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 400;
  cfg.drain_cycles = 800;
  cfg.stats_window = 100;
  cfg.deadlock_threshold = 500;
  const SimStats base = simulate(dor, 0.6, tornado_permutation(t), cfg);
  EXPECT_GT(base.ejected, 0);
  cfg.threads = 4;
  cfg.shards = 4;
  const SimStats threaded = simulate(dor, 0.6, tornado_permutation(t), cfg);
  expect_same_stats(base, threaded, "threads=4 shards=4");
}

// Natural end of the measurement phase mid-window: the short final window
// is flushed (its cycles really were measured), so the rate denominator is
// exactly measure_cycles.
TEST(WindowAccounting, NaturalEndFlushesShortFinalWindow) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  SimConfig cfg;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 500;
  cfg.stats_window = 250;
  const SimStats s = simulate(dor, 0.3, {}, cfg);
  ASSERT_EQ(s.windows.size(), 2u);
  EXPECT_EQ(s.windows[0].cycles, 250);
  EXPECT_EQ(s.windows[1].cycles, 50);
  EXPECT_EQ(s.measured_cycles, 300);
  long injected = 0;
  for (const auto& w : s.windows) injected += w.injected;
  EXPECT_EQ(s.offered_rate,
            static_cast<double>(injected) / (static_cast<double>(t.num_nodes()) * 300.0));
}

// Zero-length phases fall through without simulating a stray cycle, at any
// shard count.
TEST(WindowAccounting, ZeroLengthPhasesAreExactNoOps) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  for (const int shards : {0, 3}) {
    SimConfig cfg;
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 0;
    cfg.drain_cycles = 0;
    cfg.shards = shards;
    const SimStats s = simulate(dor, 0.3, {}, cfg);
    EXPECT_EQ(s.cycles_run, 0);
    EXPECT_EQ(s.injected, 0);
    EXPECT_TRUE(s.windows.empty());
    EXPECT_EQ(s.offered_rate, 0.0);

    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 120;
    cfg.stats_window = 250;
    const SimStats m = simulate(dor, 0.3, {}, cfg);
    ASSERT_EQ(m.windows.size(), 1u);
    EXPECT_EQ(m.windows[0].cycles, 120);
    EXPECT_EQ(m.measured_cycles, 120);
  }
}

// The regression this file exists to pin: a deadline/cancel stopping the
// run mid-window must not dilute the rates with a partially-measured
// window. The cancelled run's windows must be exactly the prefix an
// uninterrupted run (same seed, same schedule) reports, every kept window
// full-length, and the offered/accepted rates recomputable from those
// windows alone.
TEST(WindowAccounting, CancelMidWindowMatchesUninterruptedPrefix) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  SimConfig cfg;
  cfg.vcs = 4;
  cfg.warmup_cycles = 64;
  cfg.measure_cycles = 40000;
  cfg.drain_cycles = 0;
  cfg.stats_window = 128;
  const SimStats full = simulate(dor, 0.3, {}, cfg);

  guard::RunBudget budget;
  budget.deadline_seconds = 0.015;
  guard::CancelToken token(budget);
  cfg.cancel = &token;
  const SimStats cut = simulate(dor, 0.3, {}, cfg);
  ASSERT_TRUE(cut.cancelled);
  EXPECT_FALSE(cut.note.empty());
  if (cut.windows.empty()) {
    GTEST_SKIP() << "deadline fired before the first full window on this machine";
  }

  // Every kept window is full-length: the partial one was discarded.
  for (const auto& w : cut.windows) EXPECT_EQ(w.cycles, 128);
  EXPECT_EQ(cut.measured_cycles, static_cast<long>(cut.windows.size()) * 128);

  // Identical evolution until the stop: the kept windows are a prefix of
  // the uninterrupted run's.
  ASSERT_LE(cut.windows.size(), full.windows.size());
  long injected = 0, ejected = 0;
  for (std::size_t i = 0; i < cut.windows.size(); ++i) {
    EXPECT_EQ(cut.windows[i].cycles, full.windows[i].cycles) << "window " << i;
    EXPECT_EQ(cut.windows[i].injected, full.windows[i].injected) << "window " << i;
    EXPECT_EQ(cut.windows[i].ejected, full.windows[i].ejected) << "window " << i;
    injected += cut.windows[i].injected;
    ejected += cut.windows[i].ejected;
  }
  const double node_cycles =
      static_cast<double>(t.num_nodes()) * static_cast<double>(cut.measured_cycles);
  EXPECT_EQ(cut.offered_rate, static_cast<double>(injected) / node_cycles);
  EXPECT_EQ(cut.accepted_rate, static_cast<double>(ejected) / node_cycles);
}

// Heartbeat column of the determinism matrix: simulating under an active
// telemetry session — at interval 0, so every epoch-cadence site actually
// emits — must leave every statistic bitwise identical, serial and sharded.
// A heartbeat only *reads* simulator state; nothing downstream of the
// numerics reads telemetry state (the tcr::telemetry determinism contract).
TEST(ShardMatrix, HeartbeatOnNeverChangesAnyStatistic) {
  const Torus t(4);
  const TorusRouting dor = make_dor(t);
  dor.load_table();
  const std::vector<std::pair<std::string, std::vector<int>>> patterns = {
      {"uniform", {}},
      {"worst-case", worst_case(dor).permutation},
  };
  for (const auto& [name, perm] : patterns) {
    SimConfig cfg = matrix_config();
    const SimStats base = simulate(dor, 0.45, perm, cfg);
    ASSERT_GT(base.ejected, 0) << name;

    const std::string hb = ::testing::TempDir() + "sim_parallel_" + name + ".hb";
    std::remove(hb.c_str());
    telemetry::HeartbeatConfig tcfg;
    tcfg.path = hb;
    tcfg.interval_seconds = 0.0;
    tcfg.bench = "sim_matrix";
    std::string error;
    ASSERT_TRUE(telemetry::start(tcfg, &error)) << error;
    const SimStats serial_hb = simulate(dor, 0.45, perm, cfg);
    cfg.shards = 4;
    const SimStats sharded_hb = simulate(dor, 0.45, perm, cfg);
    telemetry::stop();

    expect_same_stats(base, serial_hb, name + " heartbeat-on serial");
    expect_same_stats(base, sharded_hb, name + " heartbeat-on shards=4");

    // The session really sampled the runs: the stream must carry sim
    // progress records for the measure phase.
    const guard::JournalContents contents = guard::read_journal(hb);
    ASSERT_TRUE(contents.ok) << contents.error;
    EXPECT_GT(contents.records.size(), 2u) << name;
  }
}

}  // namespace
}  // namespace tcr
