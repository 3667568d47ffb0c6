// Struct-of-arrays flit state for the parallel simulator.
//
// The legacy simulator kept one heap-allocated Packet (two std::vectors plus
// bookkeeping) per in-flight flit inside per-VC std::deques — cache-hostile
// and allocation-heavy at exactly the rates ROADMAP item 3 cares about. This
// header replaces it with three flat structures:
//
//   * FlitPool   — per-flit fields as parallel arrays indexed by a 32-bit
//                  slot id (FlitId). Paths live in a fixed-stride arena so a
//                  flit's remaining route is one pointer add away and slot
//                  reuse never allocates. Free slots link through `next`.
//   * VcRings    — all (channel, vc) input buffers as one flat ring-buffer
//                  array of FlitIds with capacity = SimConfig::buffer_depth
//                  (the credit limit), so occupancy checks and head probes
//                  are single loads.
//   * SourceQueues — per-node injection FIFOs. Only the queue head is
//                  materialized in the pool; the backlog is kept as 8-byte
//                  pending records (path id, cycle) so an over-saturated
//                  run's queue growth never bloats the pool the hot loops
//                  index into.
//
// Each shard of the parallel simulator owns one FlitPool: every flit
// buffered at a shard's nodes lives in that shard's pool, so the hot phase
// kernels never dereference another thread's arrays (cross-shard moves copy
// the flit payload through a mailbox — see sharding.hpp). Units: `hop` and
// `len` count channels (hops); `injected_at` is an absolute cycle number.
#pragma once

#include <cstdint>
#include <vector>

namespace tcr::sim_detail {

/// Index of a flit slot in its shard's FlitPool; kNoFlit = "no flit".
using FlitId = std::int32_t;
inline constexpr FlitId kNoFlit = -1;

class FlitPool {
 public:
  /// Drop all flits and reconfigure: `stride` is the per-flit path-arena
  /// capacity in hops (the longest path any routing offers), `reserve_flits`
  /// pre-sizes the arrays to avoid growth in steady state.
  void reset(int stride, int reserve_flits);

  /// Claim a slot (O(1); grows the arrays when the free list is empty).
  FlitId alloc();
  /// Return a slot to the free list.
  void release(FlitId f);

  /// Remaining route of flit f: channel ids, then per-hop VCs, each `len[f]`
  /// long, valid while the slot is live.
  std::int32_t* channels(FlitId f) { return channels_.data() + static_cast<std::size_t>(f) * stride_; }
  const std::int32_t* channels(FlitId f) const { return channels_.data() + static_cast<std::size_t>(f) * stride_; }
  std::int8_t* vcs(FlitId f) { return vcs_.data() + static_cast<std::size_t>(f) * stride_; }
  const std::int8_t* vcs(FlitId f) const { return vcs_.data() + static_cast<std::size_t>(f) * stride_; }

  int stride() const { return stride_; }
  /// Number of live (allocated) slots — the flits materialized in this
  /// pool's shard (VC buffers, source-queue heads, staged local moves).
  /// Backlogged source-queue records are counted separately
  /// (ShardState::queued).
  int live() const { return live_; }
  int capacity() const { return static_cast<int>(hop.size()); }

  // Per-flit SoA fields, indexed by FlitId. Public by design: the simulator
  // kernels index them directly in tight loops.
  std::vector<std::int32_t> hop;        // next channel index into channels(f)
  std::vector<std::int32_t> len;        // hops remaining in the arena (hop >= len: awaiting ejection)
  std::vector<std::int64_t> injected_at;  // absolute injection cycle
  std::vector<std::uint8_t> measured;   // injected during the measurement phase?
  std::vector<FlitId> next;             // intrusive free-list link

 private:
  void grow(int min_capacity);

  std::vector<std::int32_t> channels_;  // arena, stride_ per slot
  std::vector<std::int8_t> vcs_;        // arena, stride_ per slot
  int stride_ = 0;
  int live_ = 0;
  FlitId free_head_ = kNoFlit;
};

/// All (channel, vc) input buffers as fixed-capacity ring buffers over one
/// flat FlitId array. Buffer index = channel * vcs + vc; capacity = depth
/// (the per-VC credit count). Pushes beyond capacity are a logic error —
/// the simulator's credit check (occupancy snapshot) prevents them.
class VcRings {
 public:
  void reset(int num_buffers, int depth);

  int depth() const { return depth_; }
  int size(int buf) const { return size_[buf]; }
  bool empty(int buf) const { return size_[buf] == 0; }
  FlitId front(int buf) const {
    return slots_[static_cast<std::size_t>(buf) * depth_ + head_[buf]];
  }
  void push(int buf, FlitId f) {
    // head + size < 2 * depth, so the wrap is one conditional subtract (the
    // runtime-divisor `%` would be a hardware divide in a hot loop).
    int tail = head_[buf] + size_[buf];
    if (tail >= depth_) tail -= depth_;
    slots_[static_cast<std::size_t>(buf) * depth_ + tail] = f;
    ++size_[buf];
  }
  void pop(int buf) {
    const int h = head_[buf] + 1;
    head_[buf] = static_cast<std::int16_t>(h == depth_ ? 0 : h);
    --size_[buf];
  }

 private:
  std::vector<FlitId> slots_;        // buf * depth_ + i
  std::vector<std::int16_t> head_;   // per buffer
  std::vector<std::int16_t> size_;   // per buffer
  int depth_ = 0;
};

/// Per-node injection FIFOs. Channel arbitration only ever looks at the
/// queue *head*, so only the head flit is materialized in the FlitPool; the
/// backlog behind it is kept as 8-byte records (canonical path id from
/// TrafficGen::draw, measured flag, queue-entry cycle). An over-saturated
/// run queues flits far faster than the network accepts them — millions at
/// a 0.95 offered rate on k=16 — and keeping that backlog out of the pool
/// keeps the pool small enough that the random-indexed arbitration loops
/// stay cache-resident at any load.
/// Invariant: head[n] == kNoFlit implies the backlog of n is empty (a
/// record is promoted to a materialized head the moment the head slot
/// frees up — see Engine::materialize).
struct SourceQueues {
  struct Pending {
    std::uint32_t path_measured;  // canonical path id | measured << 31
    std::uint32_t injected_at;    // absolute queue-entry cycle (latency base);
                                  // Simulator requires every run to fit 32 bits

    static Pending make(std::uint32_t path_id, std::int64_t when, bool measured) {
      return {path_id | (measured ? 1u << 31 : 0u), static_cast<std::uint32_t>(when)};
    }
    std::uint32_t path_id() const { return path_measured & ~(1u << 31); }
    std::uint8_t measured() const { return static_cast<std::uint8_t>(path_measured >> 31); }
  };

  static constexpr std::size_t kBacklogChunk = 256;  // records (2 KiB)

  std::vector<FlitId> head;  // materialized head flit, kNoFlit if queue empty
  std::vector<std::vector<Pending>> backlog;  // per node; FIFO from begin[n]
  std::vector<std::int32_t> begin;            // per node: first live record

  void reset(int num_nodes) {
    head.assign(num_nodes, kNoFlit);
    backlog.assign(num_nodes, {});
    begin.assign(num_nodes, 0);
  }
  bool empty(int node) const { return head[node] == kNoFlit; }
  bool has_backlog(int node) const {
    return begin[node] < static_cast<int>(backlog[node].size());
  }
  /// Queue a record behind node's head. A node's first record reserves a
  /// chunk, so a backlog that forms grows from there instead of through
  /// the first doublings (and storage is kept until reset).
  void push_backlog(int node, const Pending& p) {
    auto& q = backlog[node];
    if (q.capacity() == 0) q.reserve(kBacklogChunk);
    q.push_back(p);
  }
  /// Pop the oldest backlog record (must exist). The dead prefix is
  /// reclaimed when the queue drains or the prefix dominates the vector, so
  /// storage stays proportional to the live backlog.
  Pending pop_backlog(int node) {
    auto& q = backlog[node];
    const Pending p = q[begin[node]++];
    if (begin[node] == static_cast<int>(q.size())) {
      q.clear();
      begin[node] = 0;
    } else if (begin[node] >= 1024 && begin[node] * 2 >= static_cast<int>(q.size())) {
      q.erase(q.begin(), q.begin() + begin[node]);
      begin[node] = 0;
    }
    return p;
  }
};

}  // namespace tcr::sim_detail
