#include <gtest/gtest.h>

#include "graph/metrics.hpp"
#include "layout/cabinets.hpp"
#include "layout/latency.hpp"
#include "layout/power.hpp"
#include "layout/qap.hpp"
#include "layout/wiring.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"
#include "util/parallel.hpp"

namespace sfly::layout {
namespace {

TEST(Cabinets, WireLengthFormula) {
  CabinetGrid g;
  g.cabinets = 12;
  g.grid_x = 3;
  g.grid_y = 4;
  EXPECT_DOUBLE_EQ(g.wire_length(0, 0), 2.0);  // intra-cabinet
  // cab 0 = (0,0); cab 5 = (1,1): 4 + 2*1 + 0.6*1.
  EXPECT_DOUBLE_EQ(g.wire_length(0, 5), 6.6);
  // Symmetric.
  EXPECT_DOUBLE_EQ(g.wire_length(5, 0), g.wire_length(0, 5));
  // cab 0 -> cab 11 = (2,3): 4 + 4 + 1.8.
  EXPECT_DOUBLE_EQ(g.wire_length(0, 11), 9.8);
}

TEST(Cabinets, PaperRoomShape) {
  // y = ceil(sqrt(2c/0.6)), x = ceil(c/y); room roughly square in metres.
  auto g = CabinetGrid::for_routers(168);  // LPS(11,7): 84 cabinets
  EXPECT_EQ(g.cabinets, 84u);
  EXPECT_GE(static_cast<std::uint64_t>(g.grid_x) * g.grid_y, g.cabinets);
  double width_m = 2.0 * g.grid_x, depth_m = 0.6 * g.grid_y;
  EXPECT_NEAR(width_m / depth_m, 1.0, 0.35);
}

TEST(Qap, ImprovesOverRandomPlacement) {
  auto g = topo::lps_graph({3, 5});
  auto opt = optimize_layout(g, {.em_rounds = 4, .swap_passes = 4, .seed = 1});
  // Compare to an unoptimized (id-order) placement.
  Placement naive;
  naive.grid = opt.placement.grid;
  naive.cabinet_of.resize(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    naive.cabinet_of[v] = v / 2 % naive.grid.cabinets;
  auto base = measure_layout(g, naive);
  EXPECT_LT(opt.total_wire_m, base.total_wire_m);
  EXPECT_GT(opt.total_wire_m, 0.0);
  EXPECT_GE(opt.max_wire_m, opt.mean_wire_m);
}

TEST(Qap, PlacementIsPermutationOfSlots) {
  auto g = topo::lps_graph({3, 5});
  auto r = optimize_layout(g);
  std::vector<int> occupancy(r.placement.grid.grid_x * r.placement.grid.grid_y, 0);
  for (auto cab : r.placement.cabinet_of) {
    ASSERT_LT(cab, occupancy.size());
    ++occupancy[cab];
  }
  for (int occ : occupancy) EXPECT_LE(occ, 2);  // two routers per cabinet
}

TEST(Qap, MatchingPinsIntraCabinetLinks) {
  // A perfect-matching-friendly graph should land many 2 m wires.
  auto g = topo::slimfly_graph({5});  // 50 routers, radix 7
  auto r = optimize_layout(g);
  std::size_t intra = 0;
  for (auto [u, v] : g.edge_list())
    if (r.placement.cabinet_of[u] == r.placement.cabinet_of[v]) ++intra;
  EXPECT_GE(intra, g.num_vertices() / 2 - 2);  // ~ one matched edge per cabinet
}

TEST(Wiring, ClassifiesElectricalVsOptical) {
  CabinetGrid grid;
  grid.cabinets = 4;
  grid.grid_x = 2;
  grid.grid_y = 2;
  Placement p;
  p.grid = grid;
  p.cabinet_of = {0, 0, 3, 3};  // two cabinets used
  auto g = Graph::from_edges(4, {{0, 1}, {2, 3}, {1, 2}});
  auto w = wiring_stats(g, p);
  EXPECT_EQ(w.links, 3u);
  EXPECT_EQ(w.electrical, 2u);  // the two 2 m intra links
  EXPECT_EQ(w.optical, 1u);     // (0,0)->(1,1): 4+2+0.6 = 6.6 m > 6
  EXPECT_DOUBLE_EQ(w.max_wire_m, 6.6);
}

TEST(Power, PortAccountingAndEfficiency) {
  WiringStats w;
  w.links = 10;
  w.electrical = 4;
  w.optical = 6;
  auto p = power_stats(w, /*bisection_links=*/5);
  EXPECT_NEAR(p.total_watts, 2 * (4 * 3.76 + 6 * 4.72), 1e-9);
  EXPECT_NEAR(p.mw_per_gbps, p.total_watts * 1000.0 / 500.0, 1e-9);
}

TEST(PhysicalLatency, PathAndSwitchSweep) {
  // Line of 3 routers in separate cabinets.
  auto g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  Placement p;
  p.grid.cabinets = 3;
  p.grid.grid_x = 3;
  p.grid.grid_y = 1;
  p.cabinet_of = {0, 1, 2};
  // wire(0,1) = wire(1,2) = 6 m -> 30 ns each.
  auto l0 = physical_latency(g, p, 0.0);
  EXPECT_NEAR(l0.max_ns, 60.0, 1e-9);
  auto l100 = physical_latency(g, p, 100.0);
  EXPECT_NEAR(l100.max_ns, 260.0, 1e-9);  // 2 hops * (30 + 100)
  EXPECT_GT(l100.mean_ns, l0.mean_ns);
}

TEST(PhysicalLatency, PrefersShortDetourOverLongDirect) {
  // Triangle where the direct wire is huge: min-latency path goes around
  // when switch latency is small, direct when switch latency dominates.
  auto g = Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  Placement p;
  p.grid.cabinets = 30;
  p.grid.grid_x = 30;
  p.grid.grid_y = 1;
  p.cabinet_of = {0, 1, 29};
  // 0-2 direct: (4 + 58) * 5ns = 310. 0-1-2: (6 + 60)*5 = 330 + extra switch.
  auto fast_switch = physical_latency(g, p, 1.0);
  EXPECT_NEAR(fast_switch.max_ns, 312.0, 1.0);  // direct still wins here
}

TEST(PhysicalLatency, BitwiseEqualAtEveryPoolWidth) {
  // The mean is a sum of doubles; it is reduced in chunk order, so the
  // double itself (not just its printed form) is the same at any width.
  const Graph g = topo::lps_graph({11, 7});
  Placement p;
  p.grid = CabinetGrid::for_routers(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    p.cabinet_of.push_back((v * 37) % p.grid.cabinets);
  const LatencyStatsPhys ref = physical_latency(g, p, 50.0);
  EXPECT_GT(ref.mean_ns, 0.0);
  for (unsigned w : {1u, 2u, 4u}) {
    TaskPool pool(w);
    const LatencyStatsPhys got = physical_latency(g, p, 50.0, &pool);
    EXPECT_EQ(got.mean_ns, ref.mean_ns) << "width " << w;
    EXPECT_EQ(got.max_ns, ref.max_ns) << "width " << w;
  }
}

}  // namespace
}  // namespace sfly::layout
