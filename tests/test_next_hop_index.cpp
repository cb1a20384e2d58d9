#include "routing/next_hop_index.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "topo/dragonfly.hpp"
#include "topo/mms.hpp"
#include "topo/paley.hpp"

namespace sfly::routing {
namespace {

// The index must reproduce the scan-based minimal next-hop recovery
// EXACTLY — same sets, same (adjacency) order, same sampled hop for every
// entropy value — because the simulator's golden pins depend on the
// sampling order bit for bit.

void expect_matches_scan(const Graph& g) {
  const Tables t = Tables::build(g);
  const NextHopIndex idx = NextHopIndex::build(g, t);
  ASSERT_EQ(idx.num_vertices(), g.num_vertices());

  std::vector<Vertex> scan;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (u == v) {
        EXPECT_EQ(idx.count(u, v), 0u);
        continue;
      }
      t.minimal_next_hops(g, u, v, scan);
      const auto row = idx.hops(u, v);
      ASSERT_EQ(row.count, scan.size()) << "u=" << u << " v=" << v;
      ASSERT_GT(row.count, 0u);
      for (std::uint32_t i = 0; i < row.count; ++i) {
        // Order-equality against the scan, and slot/vertex consistency
        // against the adjacency list.
        EXPECT_EQ(row.verts[i], scan[i]) << "u=" << u << " v=" << v;
        ASSERT_LT(row.slots[i], nb.size());
        EXPECT_EQ(nb[row.slots[i]], row.verts[i]);
      }
    }
  }
}

void expect_sampling_matches(const Graph& g, std::uint64_t entropies) {
  const Tables t = Tables::build(g);
  const NextHopIndex idx = NextHopIndex::build(g, t);
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (u == v) continue;
      for (std::uint64_t e = 0; e < entropies; ++e)
        ASSERT_EQ(idx.pick(u, v, e).vert, t.sample_next_hop(g, u, v, e))
            << "u=" << u << " v=" << v << " e=" << e;
    }
}

TEST(NextHopIndex, MatchesScanOnPaley13) {
  expect_matches_scan(topo::paley_graph({13}));
}

TEST(NextHopIndex, MatchesScanOnMms5) {
  expect_matches_scan(topo::mms_graph({5}));
}

TEST(NextHopIndex, MatchesScanOnDragonFly12) {
  expect_matches_scan(topo::dragonfly_graph(topo::DragonFlyParams::canonical(12)));
}

TEST(NextHopIndex, SamplingOrderMatchesScanOnPaley13) {
  expect_sampling_matches(topo::paley_graph({13}), 16);
}

TEST(NextHopIndex, SamplingOrderMatchesScanOnMms5) {
  expect_sampling_matches(topo::mms_graph({5}), 8);
}

TEST(NextHopIndex, SamplingOrderMatchesScanOnDragonFly12) {
  expect_sampling_matches(
      topo::dragonfly_graph(topo::DragonFlyParams::canonical(12)), 8);
}

TEST(NextHopIndex, MismatchedTablesThrow) {
  auto g = topo::paley_graph({13});
  auto other = topo::paley_graph({17});
  auto t = Tables::build(other);
  EXPECT_THROW(NextHopIndex::build(g, t), std::invalid_argument);
}

TEST(NextHopIndex, NextHopSlotFollowsValiantPhases) {
  // next_hop over the exact oracle heads toward the intermediate in phase
  // 0 and flips to the destination at the waypoint; the slot addresses
  // the picked neighbor, which is the hop Tables::sample_next_hop picks.
  auto g = topo::paley_graph({13});
  auto t = Tables::build(g);
  auto idx = NextHopIndex::build(g, t);
  const ExactOracle oracle{t, idx};
  PacketRoute route;
  route.valiant = true;
  route.intermediate = 5;
  for (std::uint64_t e = 0; e < 8; ++e) {
    PacketRoute r = route;
    const Hop hop = next_hop(oracle, 0, 9, r, e);
    EXPECT_EQ(g.neighbors(0)[hop.slot], hop.vert);
    EXPECT_EQ(hop.vert, t.sample_next_hop(g, 0, 5, e));
    EXPECT_EQ(r.phase, 0);
  }
  // At the intermediate itself the phase advances and routing retargets.
  PacketRoute r = route;
  const Hop hop = next_hop(oracle, 5, 9, r, 3);
  EXPECT_EQ(g.neighbors(5)[hop.slot], hop.vert);
  EXPECT_EQ(hop.vert, t.sample_next_hop(g, 5, 9, 3));
  EXPECT_EQ(r.phase, 1);
}

}  // namespace
}  // namespace sfly::routing
