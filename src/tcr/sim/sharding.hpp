// Shard decomposition and deterministic cross-shard handoff for the
// parallel flit simulator.
//
// The torus is partitioned into contiguous node blocks (ThreadPool::
// block_range, so the partition depends only on (num_nodes, num_shards)).
// Ownership discipline — the invariant every kernel below preserves:
//
//   * shard(n) exclusively mutates node n's source queue, ejection
//     round-robin pointer, per-node Rng, the buffers of n's *incoming*
//     channels (plus their occupancy snapshots and `want` entries), and
//     n's arbitration masks (the `cand` entries of n's four output
//     channels and `eject_mask[n]`);
//   * shard(src(c)) exclusively mutates channel c's traversal state (its
//     output round-robin pointer) and performs c's one move per cycle;
//   * every flit buffered at shard s's nodes lives in shard s's FlitPool.
//
// A simulated cycle runs as two parallel phases around two barriers
// (util::EpochBarrier), with all inter-shard communication staged:
//
//   phase 1 (per shard): refresh the occupancy snapshot of the buffers
//     last phase 2 popped, apply last cycle's staged arrivals (mailboxes in
//     fixed source-shard order, then same-shard moves), inject, eject.
//     Every push and pop here writes its buffer's snapshot entry, so the
//     snapshot ends the phase equal to the post-ejection buffer sizes.
//   -- barrier --
//   phase 2 (per shard): for each owned channel, scan the node's candidate
//     mask (source queue and input buffers whose front wants the channel)
//     round-robin, check each candidate's credit against the snapshot
//     entry of its cached downstream buffer, and stage at most one move:
//     same-shard moves keep the FlitId; cross-shard moves copy the flit's
//     remaining route into the (src-shard, dst-shard) mailbox and free the
//     origin slot.
//   -- barrier + serial tick (coordinator: stats, watchdog, windows,
//      phase machine, cancellation) --
//
// Per-cycle work follows activity, not node count: the arbitration and
// ejection masks and the snapshot are updated where a flit is pushed or
// popped, so an idle node costs a mask load per phase.
//
// Determinism: traversal capacity checks read the frozen snapshot (not live
// buffer state), each (channel, vc) buffer receives at most one flit per
// cycle (only its channel feeds it), and per-node Rng streams make
// injection independent of the iteration order — so the state evolution is
// a pure function of (routing, traffic, config, seed), bitwise identical
// for every thread and shard count. The snapshot also gives the engine its
// one deliberate semantic difference from the legacy serial simulator: a
// buffer slot freed by a traversal becomes visible to upstream capacity
// checks on the *next* cycle (one-cycle credit latency), matching how real
// routers learn about credits and removing the legacy code's dependence on
// global channel iteration order.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "tcr/graph/torus.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/sim/soa_state.hpp"
#include "tcr/sim/traffic_gen.hpp"
#include "tcr/util/rng.hpp"

namespace tcr::fault {
struct SimFaultPlan;
}

namespace tcr::sim_detail {

/// Contiguous-block partition of nodes (and with them channels and buffers)
/// across shards.
struct ShardLayout {
  int num_shards = 1;
  std::vector<int> node_begin;      // size num_shards + 1
  std::vector<int> shard_of_node;   // size num_nodes

  static ShardLayout make(int num_nodes, int num_shards);
};

/// One staged cross-shard flit: destination buffer plus the copied payload.
/// The remaining route (`rem` hops of channels and VCs) lives in the
/// mailbox's side arenas at this item's index * stride.
struct Handoff {
  std::int32_t buf = 0;           // destination buffer index (channel * vcs + vc)
  std::int32_t rem = 0;           // hops remaining
  std::int64_t injected_at = 0;
  std::uint8_t measured = 0;
};

/// Single-producer (source shard, phase 2) / single-consumer (destination
/// shard, next phase 1) staging area. The barrier between the phases is the
/// only synchronization the mailbox needs.
struct Mailbox {
  std::vector<Handoff> items;
  std::vector<std::int32_t> channels;  // arena, stride per item
  std::vector<std::int8_t> vcs;        // arena, stride per item

  void clear() {
    items.clear();
    channels.clear();
    vcs.clear();
  }
};

/// Per-shard mutable state plus the cycle counters the coordinator folds at
/// the serial tick. Cache-line aligned so neighboring shards' hot counters
/// never share a line.
struct alignas(64) ShardState {
  FlitPool pool;

  // Same-shard staged moves (FlitId stays valid; applied next phase 1).
  struct LocalMove {
    std::int32_t buf;
    FlitId flit;
  };
  std::vector<LocalMove> local_moves;

  // Buffers phase 2 popped: their snapshot entries are refreshed at the
  // start of the next phase 1 (one-cycle credit latency).
  std::vector<std::int32_t> popped;

  // Cumulative counters, written only by the owning worker during phases and
  // read/reset only by the coordinator inside the serial tick.
  long injected = 0, ejected = 0;
  long window_injected = 0, window_ejected = 0;  // coordinator resets per window
  // Measured-packet latency tally, in cycles: plain per-shard counts in
  // Engine::run_latency's bucket geometry, merged into the histograms once
  // per run (Simulator::run).
  long latency_sum = 0;  // integer cycles, exact
  long latency_count = 0;
  long latency_min = std::numeric_limits<long>::max(), latency_max = 0;
  std::array<std::int64_t, obs::Histogram::kNumBuckets> latency_buckets{};
  long link_down_cycles = 0, credit_stalls = 0;
  long handoffs = 0;  // cumulative cross-shard flits sent
  long queued = 0;    // current backlogged (not yet materialized) source flits
  bool moved = false;  // any ejection/traversal this cycle (reset in phase 1)
};

/// The whole simulator state the phase kernels operate on. Owned by
/// sim::Simulator; the kernels are free functions so the worker loop in
/// simulator.cpp stays a thin shell.
struct Engine {
  // Immutable during a run.
  const Torus* torus = nullptr;
  const TrafficGen* gen = nullptr;
  const fault::SimFaultPlan* faults = nullptr;
  int vcs = 0;
  int depth = 0;
  int num_shards = 1;
  ShardLayout layout;
  std::vector<std::int32_t> in_channel;  // node * kNumDirs + dir -> incoming channel id
  // node * (kNumDirs * vcs) + dir * vcs + vc -> input-buffer index. Hoists
  // the dir/vc -> buffer arithmetic (two runtime-divisor divides) out of the
  // per-probe hot loops in both phases.
  std::vector<std::int32_t> in_buf;
  // More hoisted topology arithmetic: Torus coordinate math divides by the
  // runtime radix, which is a hardware divide per hop per injection. These
  // tables make path translation and VC assignment division-free.
  std::vector<std::int32_t> node_x, node_y;      // per node: torus coordinates
  std::vector<std::uint8_t> dateline;            // per channel: crosses the wrap edge
  std::vector<std::int32_t> chan_dst_shard;      // per channel: shard of channel_dst
  // Inverse of in_buf: the node a buffer feeds and its slot there
  // (dir * vcs + vc), so a push/pop finds its mask bits without divides.
  std::vector<std::int32_t> buf_node;
  std::vector<std::uint8_t> buf_slot;

  // Owner-partitioned state (element i written only by its owner shard).
  std::vector<ShardState> shards;
  std::vector<Mailbox> mailboxes;  // src * num_shards + dst
  VcRings rings;
  SourceQueues src_queues;
  std::vector<std::int16_t> occ;       // per-buffer occupancy snapshot (phase-1 published)
  std::vector<std::int32_t> eject_rr;  // per node
  std::vector<std::int32_t> out_rr;    // per channel
  std::vector<Rng> node_rng;           // per node, stream seeded from (seed, node)
  // The output channel the *front* flit of each input buffer / source
  // queue needs next (kWantEject once it is at its destination, kWantNone
  // when empty). A buffered flit's next hop never changes while it sits in
  // a ring, so these change only on push/pop, through set_want /
  // set_want_src, which keep the downstream-buffer and mask arrays below in
  // step.
  std::vector<std::int32_t> want;      // per buffer
  std::vector<std::int32_t> want_src;  // per node (source-queue head)
  // For a want >= 0, the downstream buffer (want, the front's next VC) it
  // would enter: arbitration checks its credit with one load, without
  // touching the flit pool.
  std::vector<std::int32_t> want_buf;      // per buffer
  std::vector<std::int32_t> want_src_buf;  // per node
  // Arbitration masks. cand[c] (c = node * kNumDirs + dir, i.e. the output
  // channel id): bit 0 = the node's source-queue head wants c, bit 1 + i =
  // the front of the node's input slot i (dir * vcs + vc) wants c.
  // eject_mask[node]: bit i = slot i's front awaits ejection. Owned like
  // the rings they index: written only by the node's shard.
  std::vector<std::uint32_t> cand;        // per channel
  std::vector<std::uint32_t> eject_mask;  // per node

  // Coordinator-written cycle state, read by all shards during phases (the
  // barrier release orders the writes before the reads).
  long cycle = 0;
  bool injecting = true;   // false while draining
  bool measuring = false;

  // Bucket geometry of the shard latency tallies (read-only in phases).
  const obs::Histogram* run_latency = nullptr;

  void init(const Torus& t, const TrafficGen& g, const fault::SimFaultPlan* fault_plan,
            int vcs_, int depth_, int shards_, std::uint64_t seed, int path_stride);

  /// Phase 1 for shard s: snapshot refresh, arrivals, injection, ejection.
  void phase1(int s);
  /// Phase 2 for shard s: channel traversal with staged moves.
  void phase2(int s);

  /// Materialize a source flit as node n's queue head: allocate a pool
  /// slot, translate the canonical path by n, assign VCs, and publish
  /// want_src. Pure given its arguments, so deferring it from queue entry
  /// to head promotion cannot change simulation behavior.
  void materialize(FlitPool& pool, int n, const Path& path, std::int64_t when,
                   std::uint8_t measured_flag);

  int buffer_index(int channel, int vc) const { return channel * vcs + vc; }
  static constexpr std::int32_t kWantEject = -1;
  static constexpr std::int32_t kWantNone = -2;

  /// What a queue front wants: its next output channel (or kWantEject /
  /// kWantNone) and, for a channel, the downstream buffer it would enter.
  struct Want {
    std::int32_t channel;
    std::int32_t buf;
  };
  static constexpr Want kNoWant{kWantNone, -1};
  /// The next hop of flit f, or kWantEject at its destination.
  Want next_want(const FlitPool& pool, FlitId f) const {
    const int h = pool.hop[f];
    if (h >= pool.len[f]) return {kWantEject, -1};
    const int c = pool.channels(f)[h];
    return {c, buffer_index(c, pool.vcs(f)[h])};
  }

  /// The only writer of want[buf] / want_buf[buf]: moves the buffer's bit
  /// from the mask of its old want to the mask of w. A want >= 0 is an
  /// output channel of the buffer's node, so it indexes cand directly.
  void set_want(int buf, Want w) {
    const std::int32_t old = want[buf];
    want[buf] = w.channel;
    want_buf[buf] = w.buf;
    const std::uint32_t bit = 1u << buf_slot[buf];
    if (old >= 0) {
      cand[old] &= ~(bit << 1);
    } else if (old == kWantEject) {
      eject_mask[buf_node[buf]] &= ~bit;
    }
    if (w.channel >= 0) {
      cand[w.channel] |= bit << 1;
    } else if (w.channel == kWantEject) {
      eject_mask[buf_node[buf]] |= bit;
    }
  }
  /// The only writer of want_src[n] / want_src_buf[n] (a head flit always
  /// has a hop left, so w is a channel or kNoWant).
  void set_want_src(int n, Want w) {
    const std::int32_t old = want_src[n];
    want_src[n] = w.channel;
    want_src_buf[n] = w.buf;
    if (old >= 0) cand[old] &= ~1u;
    if (w.channel >= 0) cand[w.channel] |= 1u;
  }
  /// Live flits network-wide (pools + staged mailbox flits). Coordinator
  /// only (serial tick).
  long live_flits() const;
};

}  // namespace tcr::sim_detail
