#include "tcr/routing/dor.hpp"

#include "tcr/util/check.hpp"

namespace tcr {

namespace detail {

std::vector<RingChoice> minimal_ring_choices(int k, int delta) {
  TCR_REQUIRE(delta >= 0 && delta < k, "ring offset must be reduced mod k");
  if (delta == 0) return {{1, 0, 1.0}};
  if (2 * delta == k) return {{1, delta, 0.5}, {-1, delta, 0.5}};
  if (delta < k - delta) return {{1, delta, 1.0}};
  return {{-1, k - delta, 1.0}};
}

void append_ring_walk(const Torus& t, std::vector<int>& walk, bool x_dim, int sign, int len) {
  TCR_REQUIRE(!walk.empty(), "walk must start somewhere");
  const Dir d = x_dim ? (sign > 0 ? Dir::PX : Dir::NX) : (sign > 0 ? Dir::PY : Dir::NY);
  for (int i = 0; i < len; ++i) walk.push_back(t.neighbor(walk.back(), d));
}

std::vector<WeightedWalk> dor_walks(const Torus& t, int from, int to, bool x_first) {
  const int k = t.k();
  const int dx = (t.x_of(to) - t.x_of(from) + k) % k;
  const int dy = (t.y_of(to) - t.y_of(from) + k) % k;
  const auto xc = minimal_ring_choices(k, dx);
  const auto yc = minimal_ring_choices(k, dy);

  std::vector<WeightedWalk> out;
  out.reserve(xc.size() * yc.size());
  for (const auto& x : xc) {
    for (const auto& y : yc) {
      WeightedWalk w;
      w.walk.push_back(from);
      if (x_first) {
        append_ring_walk(t, w.walk, true, x.sign, x.len);
        append_ring_walk(t, w.walk, false, y.sign, y.len);
      } else {
        append_ring_walk(t, w.walk, false, y.sign, y.len);
        append_ring_walk(t, w.walk, true, x.sign, x.len);
      }
      w.prob = x.prob * y.prob;
      TCR_ASSERT(w.walk.back() == to, "dor walk must reach the destination");
      out.push_back(std::move(w));
    }
  }
  return out;
}

}  // namespace detail

TorusRouting make_dor(const Torus& torus) {
  // Each path's channels come straight from the ring choices, X hops from
  // node 0 and then Y hops, in dor_walks()'s order and with its weights.
  const int k = torus.k();
  const auto dir = [](bool x_dim, int sign) {
    return x_dim ? (sign > 0 ? Dir::PX : Dir::NX) : (sign > 0 ? Dir::PY : Dir::NY);
  };
  TorusRouting r(torus, "DOR");
  for (int e = 1; e < torus.num_nodes(); ++e) {
    for (const auto& xc : detail::minimal_ring_choices(k, torus.x_of(e))) {
      for (const auto& yc : detail::minimal_ring_choices(k, torus.y_of(e))) {
        Path p;
        p.dst = e;
        p.channels.reserve(static_cast<std::size_t>(xc.len + yc.len));
        int x = 0, y = 0;
        for (int i = 0; i < xc.len; ++i, x += xc.sign) {
          p.channels.push_back(torus.channel(torus.node(x, y), dir(true, xc.sign)));
        }
        for (int i = 0; i < yc.len; ++i, y += yc.sign) {
          p.channels.push_back(torus.channel(torus.node(x, y), dir(false, yc.sign)));
        }
        r.add_path(e, std::move(p), xc.prob * yc.prob);
      }
    }
  }
  return r;
}

}  // namespace tcr
