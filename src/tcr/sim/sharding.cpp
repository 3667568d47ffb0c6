#include "tcr/sim/sharding.hpp"

#include <algorithm>
#include <bit>

#include "tcr/fault/fault.hpp"
#include "tcr/sim/network.hpp"
#include "tcr/obs/registry.hpp"
#include "tcr/util/check.hpp"
#include "tcr/util/thread_pool.hpp"

namespace tcr::sim_detail {

ShardLayout ShardLayout::make(int num_nodes, int num_shards) {
  TCR_REQUIRE(num_shards >= 1, "need at least one shard");
  ShardLayout l;
  l.num_shards = num_shards;
  l.node_begin.resize(num_shards + 1);
  l.shard_of_node.resize(num_nodes);
  for (int s = 0; s < num_shards; ++s) {
    const auto [b, e] = ThreadPool::block_range(num_nodes, num_shards, s);
    l.node_begin[s] = b;
    for (int n = b; n < e; ++n) l.shard_of_node[n] = s;
  }
  l.node_begin[num_shards] = num_nodes;
  return l;
}

void Engine::init(const Torus& t, const TrafficGen& g, const fault::SimFaultPlan* fault_plan,
                  int vcs_, int depth_, int shards_, std::uint64_t seed, int path_stride) {
  torus = &t;
  gen = &g;
  faults = fault_plan;
  vcs = vcs_;
  depth = depth_;
  num_shards = shards_;
  layout = ShardLayout::make(t.num_nodes(), shards_);

  in_channel.resize(static_cast<std::size_t>(t.num_nodes()) * kNumDirs);
  for (int n = 0; n < t.num_nodes(); ++n) {
    for (int d = 0; d < kNumDirs; ++d) {
      // In-channel of n in direction d: the same-direction channel leaving
      // the opposite neighbor.
      const Dir dir = static_cast<Dir>(d);
      const Dir opp = static_cast<Dir>(d ^ 1);
      in_channel[static_cast<std::size_t>(n) * kNumDirs + d] =
          t.channel(t.neighbor(n, opp), dir);
    }
  }
  // Candidate masks hold the source head plus every input slot in 32 bits.
  TCR_REQUIRE(1 + kNumDirs * vcs_ <= 32, "arbitration masks hold at most 7 VCs");
  const std::size_t num_bufs = static_cast<std::size_t>(t.num_channels()) * vcs_;
  in_buf.resize(static_cast<std::size_t>(t.num_nodes()) * kNumDirs * vcs_);
  buf_node.resize(num_bufs);
  buf_slot.resize(num_bufs);
  for (int n = 0; n < t.num_nodes(); ++n) {
    for (int d = 0; d < kNumDirs; ++d) {
      const int c = in_channel[static_cast<std::size_t>(n) * kNumDirs + d];
      for (int vc = 0; vc < vcs_; ++vc) {
        const int buf = c * vcs_ + vc;
        in_buf[(static_cast<std::size_t>(n) * kNumDirs + d) * vcs_ + vc] = buf;
        buf_node[buf] = n;
        buf_slot[buf] = static_cast<std::uint8_t>(d * vcs_ + vc);
      }
    }
  }
  node_x.resize(t.num_nodes());
  node_y.resize(t.num_nodes());
  for (int n = 0; n < t.num_nodes(); ++n) {
    node_x[n] = t.x_of(n);
    node_y[n] = t.y_of(n);
  }
  dateline.resize(t.num_channels());
  chan_dst_shard.resize(t.num_channels());
  for (int c = 0; c < t.num_channels(); ++c) {
    dateline[c] = crosses_dateline(t, c) ? 1 : 0;
    chan_dst_shard[c] = layout.shard_of_node[t.channel_dst(c)];
  }

  shards.assign(shards_, ShardState{});
  mailboxes.assign(static_cast<std::size_t>(shards_) * shards_, Mailbox{});
  for (int s = 0; s < shards_; ++s) {
    const int nodes = layout.node_begin[s + 1] - layout.node_begin[s];
    // Steady-state flit population is bounded by the buffer space plus a
    // source-queue allowance; start with a modest reservation and grow.
    shards[s].pool.reset(path_stride, nodes * kNumDirs * depth_);
    // Phase 2 pops at most one buffer per output channel per cycle.
    shards[s].popped.reserve(static_cast<std::size_t>(nodes) * kNumDirs);
  }
  rings.reset(t.num_channels() * vcs_, depth_);
  src_queues.reset(t.num_nodes());
  occ.assign(num_bufs, 0);
  eject_rr.assign(t.num_nodes(), 0);
  out_rr.assign(t.num_channels(), 0);
  want.assign(num_bufs, kWantNone);
  want_src.assign(t.num_nodes(), kWantNone);
  want_buf.assign(num_bufs, -1);
  want_src_buf.assign(t.num_nodes(), -1);
  cand.assign(t.num_channels(), 0);
  eject_mask.assign(t.num_nodes(), 0);
  node_rng.clear();
  node_rng.reserve(t.num_nodes());
  for (int n = 0; n < t.num_nodes(); ++n) {
    // One independent stream per node: splitmix64 seeding decorrelates
    // consecutive seeds, so (seed, node) -> stream is deterministic and
    // shard-agnostic.
    node_rng.emplace_back(seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(n + 1));
  }

  cycle = 0;
  injecting = true;
  measuring = false;
}

void Engine::materialize(FlitPool& pool, int n, const Path& path, std::int64_t when,
                         std::uint8_t measured_flag) {
  const Torus& t = *torus;
  const int k = t.k();
  const FlitId f = pool.alloc();
  const auto& canonical = path.channels;
  const int len = static_cast<int>(canonical.size());
  std::int32_t* ch = pool.channels(f);
  // Division-free translate_channel: translate the source node of each
  // canonical channel by n via the coordinate tables (wrap = one
  // conditional subtract; coordinates stay in [0, k)).
  const int tx = node_x[n], ty = node_y[n];
  for (int j = 0; j < len; ++j) {
    const int c = canonical[j];
    const int a = c >> 2;
    int xw = node_x[a] + tx;
    if (xw >= k) xw -= k;
    int yw = node_y[a] + ty;
    if (yw >= k) yw -= k;
    ch[j] = ((xw + k * yw) << 2) | (c & 3);
  }
  assign_vcs_into(t, ch, len, vcs, dateline.data(), pool.vcs(f));
  pool.hop[f] = 0;
  pool.len[f] = len;
  pool.injected_at[f] = when;
  pool.measured[f] = measured_flag;
  src_queues.head[n] = f;
  set_want_src(n, {ch[0], buffer_index(ch[0], pool.vcs(f)[0])});
}

void Engine::phase1(int s) {
  ShardState& sh = shards[s];
  FlitPool& pool = sh.pool;
  const int node_lo = layout.node_begin[s], node_hi = layout.node_begin[s + 1];

  sh.moved = false;

  // ---- occupancy snapshot: buffers last phase 2 popped ----
  // Every other change to a buffer's size happens in this phase and writes
  // its entry on the spot, so after this phase occ[b] == rings.size(b) for
  // every buffer of the shard: phase-2 capacity checks (any shard) read
  // these as this cycle's credits.
  for (const std::int32_t buf : sh.popped) occ[buf] = static_cast<std::int16_t>(rings.size(buf));
  sh.popped.clear();

  // ---- apply staged arrivals from the previous cycle ----
  // Mailboxes in fixed source-shard order, then same-shard moves. Each
  // buffer receives at most one flit per cycle, so this order is fixed by
  // construction — it exists to make the determinism argument local.
  for (int a = 0; a < num_shards; ++a) {
    Mailbox& m = mailboxes[static_cast<std::size_t>(a) * num_shards + s];
    const int stride = pool.stride();
    for (std::size_t i = 0; i < m.items.size(); ++i) {
      const Handoff& h = m.items[i];
      const FlitId f = pool.alloc();
      pool.hop[f] = 0;
      pool.len[f] = h.rem;
      pool.injected_at[f] = h.injected_at;
      pool.measured[f] = h.measured;
      const std::int32_t* ch_src = m.channels.data() + i * static_cast<std::size_t>(stride);
      const std::int8_t* vc_src = m.vcs.data() + i * static_cast<std::size_t>(stride);
      std::int32_t* ch_dst = pool.channels(f);
      std::int8_t* vc_dst = pool.vcs(f);
      for (int j = 0; j < h.rem; ++j) {
        ch_dst[j] = ch_src[j];
        vc_dst[j] = vc_src[j];
      }
      rings.push(h.buf, f);
      occ[h.buf] = static_cast<std::int16_t>(rings.size(h.buf));
      if (rings.size(h.buf) == 1) set_want(h.buf, next_want(pool, f));
    }
    m.clear();
  }
  for (const ShardState::LocalMove& lm : sh.local_moves) {
    rings.push(lm.buf, lm.flit);
    occ[lm.buf] = static_cast<std::int16_t>(rings.size(lm.buf));
    if (rings.size(lm.buf) == 1) set_want(lm.buf, next_want(pool, lm.flit));
  }
  sh.local_moves.clear();

  // ---- injection (one Bernoulli draw per node per cycle) ----
  if (injecting) {
    for (int n = node_lo; n < node_hi; ++n) {
      const auto d = gen->draw(n, node_rng[n]);
      if (!d) continue;
      if (src_queues.empty(n)) {
        materialize(pool, n, gen->path(d->path_id), cycle, measuring ? 1 : 0);
      } else {
        src_queues.push_backlog(n, SourceQueues::Pending::make(d->path_id, cycle, measuring));
        ++sh.queued;
      }
      ++sh.injected;
      if (measuring) ++sh.window_injected;
    }
  }

  // ---- ejection: one flit per node per cycle ----
  // The round-robin pick is a cyclic bit-scan of the node's eject mask from
  // eject_rr: the first slot at or after the pointer whose front awaits
  // ejection, else the first one overall.
  const int eject_slots = kNumDirs * vcs;
  for (int n = node_lo; n < node_hi; ++n) {
    const std::uint32_t m = eject_mask[n];
    if (m == 0) continue;
    const std::uint32_t rr = static_cast<std::uint32_t>(eject_rr[n]);
    const std::uint32_t ge = (m >> rr) << rr;
    const int slot = std::countr_zero(ge != 0 ? ge : m);
    const int buf = in_buf[static_cast<std::size_t>(n) * eject_slots + slot];
    const FlitId f = rings.front(buf);
    rings.pop(buf);
    occ[buf] = static_cast<std::int16_t>(rings.size(buf));
    set_want(buf, rings.empty(buf) ? kNoWant : next_want(pool, rings.front(buf)));
    ++sh.ejected;
    if (measuring) ++sh.window_ejected;
    if (pool.measured[f]) {
      const long lat = static_cast<long>(cycle - pool.injected_at[f]);
      sh.latency_min = std::min(sh.latency_min, lat);
      sh.latency_max = std::max(sh.latency_max, lat);
      sh.latency_sum += lat;
      ++sh.latency_count;
      ++sh.latency_buckets[run_latency->bucket_index(static_cast<double>(lat))];
    }
    pool.release(f);
    eject_rr[n] = slot + 1 == eject_slots ? 0 : slot + 1;
    sh.moved = true;
  }
}

void Engine::phase2(int s) {
  ShardState& sh = shards[s];
  FlitPool& pool = sh.pool;
  const Torus& t = *torus;
  const int slots = 1 + kNumDirs * vcs;

  // Candidate slot encoding per output channel c at node n = src(c):
  //   0                -> source queue of n
  //   1 + dir*vcs + vc -> input buffer (in-channel dir, vc)
  //
  // The round-robin wrap is a conditional subtract, not `%` — see phase 1.
  for (int n = layout.node_begin[s]; n < layout.node_begin[s + 1]; ++n) {
    // Fault accounting first: link_down_cycles counts faulted
    // (channel, cycle) pairs whether or not traffic is present, so it must
    // not sit behind the empty-node fast path below.
    if (faults != nullptr) {
      for (int d = 0; d < kNumDirs; ++d) {
        if (faults->link_down(t.channel(n, static_cast<Dir>(d)), cycle))
          ++sh.link_down_cycles;
      }
    }
    // The node's four candidate masks (kept current by set_want /
    // set_want_src), copied so this cycle's arbitration can add successors
    // below. A node with nothing to send (or only flits awaiting ejection)
    // has four empty masks and is skipped outright.
    const std::int32_t* bufs = in_buf.data() + static_cast<std::size_t>(n) * (slots - 1);
    const std::uint32_t* node_cand = cand.data() + static_cast<std::size_t>(n) * kNumDirs;
    std::uint32_t local[kNumDirs] = {node_cand[0], node_cand[1], node_cand[2], node_cand[3]};
    if ((local[0] | local[1] | local[2] | local[3]) == 0) continue;

    for (int c = n * kNumDirs; c < (n + 1) * kNumDirs; ++c) {
      std::uint32_t m = local[c & 3];
      if (m == 0) continue;
      if (faults != nullptr && faults->link_down(c, cycle)) {
        continue;  // link transmits nothing this cycle (counted above)
      }
      const std::uint32_t rr = static_cast<std::uint32_t>(out_rr[c]);
      while (m != 0) {
        // First candidate in cyclic round-robin order from out_rr: the
        // lowest set bit at position >= rr, else the lowest set bit overall.
        const std::uint32_t ge = (m >> rr) << rr;
        const int slot = std::countr_zero(ge != 0 ? ge : m);
        const int from_buf = slot == 0 ? -1 : bufs[slot - 1];
        const int dbuf = slot == 0 ? want_src_buf[n] : want_buf[from_buf];
        if (occ[dbuf] >= depth) {  // no credit this cycle
          m &= ~(1u << slot);      // try the next candidate in cyclic order
          continue;
        }
        if (faults != nullptr && faults->credit_stalled(c, dbuf - c * vcs, cycle)) {
          ++sh.credit_stalls;
          m &= ~(1u << slot);
          continue;  // downstream reports no credit despite free space
        }

        // Commit the move: pop, advance, stage the push for next phase 1.
        // The slot's successor (promoted queue head / new ring front) is
        // added to the local masks so this node's not-yet-arbitrated
        // output channels see it this same cycle. The popped buffer's
        // snapshot entry is refreshed at the next phase 1.
        const FlitId f = slot == 0 ? src_queues.head[n] : rings.front(from_buf);
        if (slot == 0) {
          src_queues.head[n] = kNoFlit;
          if (src_queues.has_backlog(n)) {
            const SourceQueues::Pending p = src_queues.pop_backlog(n);
            --sh.queued;
            materialize(pool, n, gen->path(p.path_id()), p.injected_at, p.measured());
            local[want_src[n] & 3] |= 1u;
          } else {
            set_want_src(n, kNoWant);
          }
        } else {
          rings.pop(from_buf);
          sh.popped.push_back(from_buf);
          const Want w = rings.empty(from_buf) ? kNoWant : next_want(pool, rings.front(from_buf));
          set_want(from_buf, w);
          if (w.channel >= 0) local[w.channel & 3] |= 1u << slot;
        }
        ++pool.hop[f];
        const int dst_shard = chan_dst_shard[c];
        if (dst_shard == s) {
          sh.local_moves.push_back({dbuf, f});
        } else {
          Mailbox& mb = mailboxes[static_cast<std::size_t>(s) * num_shards + dst_shard];
          const int rem = pool.len[f] - pool.hop[f];
          Handoff h;
          h.buf = dbuf;
          h.rem = rem;
          h.injected_at = pool.injected_at[f];
          h.measured = pool.measured[f];
          mb.items.push_back(h);
          const int stride = pool.stride();
          const std::size_t base = mb.channels.size();
          mb.channels.resize(base + static_cast<std::size_t>(stride));
          mb.vcs.resize(base + static_cast<std::size_t>(stride));
          const std::int32_t* ch = pool.channels(f) + pool.hop[f];
          const std::int8_t* vc = pool.vcs(f) + pool.hop[f];
          for (int j = 0; j < rem; ++j) {
            mb.channels[base + j] = ch[j];
            mb.vcs[base + j] = vc[j];
          }
          pool.release(f);
          ++sh.handoffs;
        }
        out_rr[c] = slot + 1 == slots ? 0 : slot + 1;
        sh.moved = true;
        break;
      }
    }
  }
}

long Engine::live_flits() const {
  long live = 0;
  for (const ShardState& sh : shards) live += sh.pool.live() + sh.queued;
  for (const Mailbox& m : mailboxes) live += static_cast<long>(m.items.size());
  return live;
}

}  // namespace tcr::sim_detail
