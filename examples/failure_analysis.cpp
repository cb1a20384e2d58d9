// Failure analysis: how gracefully does a SpectralFly network degrade as
// random links die?  Reproduces the Section IV-A methodology on a single
// topology with a progress table (diameter, mean distance, bisection,
// connectivity threshold).
//
//   $ ./examples/failure_analysis [p] [q]

#include <cstdio>
#include <optional>

#include "graph/failures.hpp"
#include "graph/metrics.hpp"
#include "partition/bisection.hpp"
#include "topo/lps.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sfly;
  const auto p = argc > 1 ? parse_uint<std::uint64_t>(argv[1])
                           : std::optional<std::uint64_t>(23);
  const auto q = argc > 2 ? parse_uint<std::uint64_t>(argv[2])
                           : std::optional<std::uint64_t>(11);
  if (!p || !q) {
    std::fprintf(stderr, "usage: failure_analysis [p] [q]\n");
    return 2;
  }
  topo::LpsParams params{*p, *q};
  auto g = topo::lps_graph(params);
  std::printf("%s: %u routers, %zu links\n\n", params.name().c_str(),
              g.num_vertices(), g.num_edges());

  Table t({"Links failed", "Connected trials", "Diameter", "Mean dist",
           "Bisection"});
  const int kTrials = 8;
  for (double f : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) {
    int connected = 0;
    double diam = 0, dist = 0, cut = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Graph h = delete_random_edges(g, f, split_seed(5150, trial));
      auto stats = distance_stats(h);
      if (!stats.connected) continue;
      ++connected;
      diam += stats.diameter;
      dist += stats.mean_distance;
      cut += static_cast<double>(bisection_bandwidth(h, {.restarts = 2}));
    }
    if (connected == 0) {
      t.add_row({Table::num(100 * f, 0) + "%", "0/8", "-", "-", "-"});
      continue;
    }
    t.add_row({Table::num(100 * f, 0) + "%",
               std::to_string(connected) + "/" + std::to_string(kTrials),
               Table::num(diam / connected, 2), Table::num(dist / connected, 2),
               Table::num(cut / connected, 0)});
  }
  t.print();
  std::printf("\nRamanujan expansion keeps the surviving network compact: the\n"
              "diameter creeps (not jumps) and bisection degrades linearly.\n");
  return 0;
}
