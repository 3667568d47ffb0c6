// Figure 3 walkthrough: two-phase (Valiant) routes can loop; removing the
// loop shortens the path without increasing any channel load. This is the
// observation IVAL is built on (§5.2).
//
//   ./example_loop_removal [--k 8]
#include <iostream>

#include "tcr/routing/dor.hpp"
#include "tcr/routing/valiant.hpp"
#include "tcr/util/cli.hpp"

namespace {

std::string fmt_node(const tcr::Torus& t, int n) {
  std::string s(1, '(');
  s += std::to_string(t.x_of(n));
  s += ',';
  s += std::to_string(t.y_of(n));
  s += ')';
  return s;
}

void print_walk(const tcr::Torus& t, const std::vector<int>& walk) {
  for (std::size_t i = 0; i < walk.size(); ++i) {
    if (i) std::cout << " -> ";
    std::cout << fmt_node(t, walk[i]);
  }
  std::cout << "   [" << walk.size() - 1 << " hops]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcr;
  const Cli cli(argc, argv);
  const Torus t(cli.get_int("k", 8));

  // The paper's Figure 3 scenario: the intermediate i lies "past" the
  // destination in X, so phase 2 (also XY order) backtracks over phase 1's
  // row and the concatenated walk loops.
  const int s = t.node(0, 0);
  const int i = t.node(3, 0);
  const int d = t.node(1, 1);

  std::cout << "s = " << fmt_node(t, s) << ", intermediate i = " << fmt_node(t, i)
            << ", d = " << fmt_node(t, d) << "\n\n";

  const auto phase1 = detail::dor_walks(t, s, i, /*x_first=*/true);
  const auto phase2 = detail::dor_walks(t, i, d, /*x_first=*/true);
  std::vector<int> walk = phase1.front().walk;
  walk.insert(walk.end(), phase2.front().walk.begin() + 1, phase2.front().walk.end());

  std::cout << "VAL walk (keeps the loop):\n  ";
  print_walk(t, walk);

  const auto cleaned = remove_loops(walk);
  std::cout << "after loop removal (IVAL):\n  ";
  print_walk(t, cleaned);

  std::cout << "\nloop removal only deletes channel traversals, so every channel load\n"
               "can only decrease: worst-case throughput is preserved while the path\n"
               "shortens. Aggregated over all intermediates this is why IVAL's average\n"
               "path length drops from 2.0x to ~1.61x minimal (k = 8) at the same\n"
               "worst-case throughput.\n\n";

  const TorusRouting val = make_valiant(t);
  const TorusRouting ival = make_ival(t);
  std::cout << "VAL  normalized locality: " << val.normalized_locality() << "\n";
  std::cout << "IVAL normalized locality: " << ival.normalized_locality() << "\n";
  return 0;
}
