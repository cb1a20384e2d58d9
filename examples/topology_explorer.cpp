// Topology explorer: given a target router count and radix, find the
// closest feasible instance in each family and compare their structural
// properties side by side — the paper's Section IV methodology as a tool.
//
//   $ ./examples/topology_explorer [routers] [radix]

#include <cstdio>
#include <optional>

#include "core/design_space.hpp"
#include "graph/metrics.hpp"
#include "partition/bisection.hpp"
#include "spectral/spectra.hpp"
#include "topo/factory.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sfly;
  const auto routers = argc > 1 ? parse_uint<std::uint64_t>(argv[1])
                                 : std::optional<std::uint64_t>(650);
  const auto radix = argc > 2 ? parse_uint<std::uint32_t>(argv[2])
                              : std::optional<std::uint32_t>(24);
  if (!routers || !radix) {
    std::fprintf(stderr, "usage: topology_explorer [routers] [radix]\n");
    return 2;
  }
  core::Target target;
  target.routers = *routers;
  target.radix = *radix;
  std::printf("Searching all families near %llu routers of radix %u...\n\n",
              static_cast<unsigned long long>(target.routers), target.radix);

  auto cls = core::assemble_class(target);
  std::vector<topo::TopologySpec> specs;
  if (auto p = cls.lps)
    specs.push_back({.name = p->name(),
                     .build = [p] { return topo::lps_graph(*p); },
                     .radix = p->radix()});
  if (auto p = cls.slimfly)
    specs.push_back({.name = p->name(),
                     .build = [p] { return topo::slimfly_graph(*p); },
                     .radix = p->radix()});
  if (auto p = cls.bundlefly)
    specs.push_back({.name = p->name(),
                     .build = [p] { return topo::bundlefly_graph(*p); },
                     .radix = p->radix()});
  if (auto p = cls.dragonfly)
    specs.push_back({.name = p->name(),
                     .build = [p] { return topo::dragonfly_graph(*p); },
                     .radix = p->radix()});

  Table t({"Topology", "Routers", "Radix", "Diam", "Mean dist", "Girth",
           "mu1", "Bisection", "Ramanujan"});
  for (const auto& inst : specs) {
    const Graph g = inst.build();
    auto stats = distance_stats(g);
    auto spec = compute_spectra(g);
    auto cut = bisection_bandwidth(g, {.restarts = 3});
    t.add_row({inst.name, std::to_string(g.num_vertices()),
               std::to_string(inst.radix), std::to_string(stats.diameter),
               Table::num(stats.mean_distance, 2), std::to_string(girth(g)),
               Table::num(spec.mu1, 2), std::to_string(cut),
               spec.ramanujan ? "yes" : "no"});
  }
  t.print();
  std::printf("\nHint: mu1 close to its Ramanujan ceiling means near-optimal\n"
              "expansion — high bisection bandwidth and bottleneck-freedom.\n");
  return 0;
}
