#include "routing/policy.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/tables.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "graph/failures.hpp"
#include "graph/metrics.hpp"
#include "topo/lps.hpp"
#include "topo/paley.hpp"
#include "util/parallel.hpp"

namespace sfly::routing {
namespace {

Graph cycle_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < n; ++i) e.emplace_back(i, (i + 1) % n);
  return Graph::from_edges(n, std::move(e));
}

Graph grid2d(Vertex r, Vertex c) {
  std::vector<std::pair<Vertex, Vertex>> e;
  auto id = [&](Vertex i, Vertex j) { return i * c + j; };
  for (Vertex i = 0; i < r; ++i)
    for (Vertex j = 0; j < c; ++j) {
      if (i + 1 < r) e.emplace_back(id(i, j), id(i + 1, j));
      if (j + 1 < c) e.emplace_back(id(i, j), id(i, j + 1));
    }
  return Graph::from_edges(r * c, std::move(e));
}

TEST(Tables, CycleDistances) {
  auto g = cycle_graph(10);
  auto t = Tables::build(g);
  EXPECT_EQ(t.diameter(), 5);
  EXPECT_EQ(t.distance(0, 5), 5);
  EXPECT_EQ(t.distance(0, 9), 1);
  EXPECT_EQ(t.distance(3, 3), 0);
}

TEST(Tables, ThrowsOnDisconnected) {
  auto g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(Tables::build(g), std::runtime_error);
}

TEST(Tables, MinimalNextHopDiversityOnGrid) {
  // On a 2D grid, interior vertices have two minimal next hops toward a
  // diagonal destination.
  auto g = grid2d(4, 4);
  auto t = Tables::build(g);
  std::vector<Vertex> hops;
  t.minimal_next_hops(g, 0, 15, hops);
  EXPECT_EQ(hops.size(), 2u);  // right and down
  t.minimal_next_hops(g, 0, 3, hops);
  EXPECT_EQ(hops.size(), 1u);  // straight line
}

TEST(Tables, SampleNextHopAlwaysMinimal) {
  auto g = grid2d(5, 5);
  auto t = Tables::build(g);
  for (std::uint64_t e = 0; e < 64; ++e) {
    Vertex next = t.sample_next_hop(g, 0, 24, e);
    EXPECT_EQ(t.distance(next, 24) + 1, t.distance(0, 24));
  }
}

TEST(Tables, SampleCoversAllMinimalHops) {
  auto g = grid2d(4, 4);
  auto t = Tables::build(g);
  std::set<Vertex> seen;
  for (std::uint64_t e = 0; e < 32; ++e) seen.insert(t.sample_next_hop(g, 0, 15, e));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Tables, LpsPathDiversityExists) {
  // The paper attributes SpectralFly's congestion robustness to minimal
  // path diversity; check multiple minimal next hops occur for some pairs.
  auto g = topo::lps_graph({3, 5});
  auto t = Tables::build(g);
  std::vector<Vertex> hops;
  std::size_t multi = 0;
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    t.minimal_next_hops(g, 0, v, hops);
    ASSERT_GE(hops.size(), 1u);
    if (hops.size() > 1) ++multi;
  }
  EXPECT_GT(multi, 0u);
}

TEST(Policy, RequiredVcsPerPaper) {
  EXPECT_EQ(required_vcs(Algo::kMinimal, 3), 4u);   // d + 1
  EXPECT_EQ(required_vcs(Algo::kValiant, 3), 7u);   // 2d + 1
  EXPECT_EQ(required_vcs(Algo::kUgalL, 4), 9u);
}

// Idle network: every output queue empty.
constexpr auto kIdle = [](Vertex, std::uint16_t) { return std::uint64_t{0}; };

TEST(Policy, MinimalNeverValiant) {
  auto g = cycle_graph(8);
  auto t = Tables::build(g);
  auto idx = NextHopIndex::build(g, t);
  const ExactOracle oracle{t, idx};
  auto r = source_decision(Algo::kMinimal, oracle, 0, 4, 123, kIdle);
  EXPECT_FALSE(r.valiant);
}

TEST(Policy, ValiantPicksDistinctIntermediate) {
  auto g = cycle_graph(16);
  auto t = Tables::build(g);
  auto idx = NextHopIndex::build(g, t);
  const ExactOracle oracle{t, idx};
  for (std::uint64_t e = 1; e <= 40; ++e) {
    auto r = source_decision(Algo::kValiant, oracle, 2, 9, e, kIdle);
    EXPECT_TRUE(r.valiant);
    EXPECT_NE(r.intermediate, 2u);
    EXPECT_NE(r.intermediate, 9u);
  }
}

TEST(Policy, TwoRouterNetworkRoutesMinimally) {
  // No intermediate distinct from src and dst exists; the draw must not
  // spin forever.
  auto g = Graph::from_edges(2, {{0, 1}});
  auto t = Tables::build(g);
  auto idx = NextHopIndex::build(g, t);
  const ExactOracle oracle{t, idx};
  for (Algo algo : {Algo::kValiant, Algo::kUgalL, Algo::kUgalG}) {
    auto r = source_decision(algo, oracle, 0, 1, 5, kIdle);
    EXPECT_FALSE(r.valiant) << algo_name(algo);
    EXPECT_EQ(next_hop(oracle, 0, 1, r, 5).vert, 1u);
  }
}

TEST(Policy, UgalPrefersMinimalWhenIdle) {
  auto g = cycle_graph(16);
  auto t = Tables::build(g);
  auto idx = NextHopIndex::build(g, t);
  const ExactOracle oracle{t, idx};
  for (std::uint64_t e = 1; e <= 20; ++e) {
    auto r = source_decision(Algo::kUgalL, oracle, 0, 5, e, kIdle);
    EXPECT_FALSE(r.valiant) << "idle network must route minimally";
  }
}

TEST(Policy, UgalDivertsUnderCongestion) {
  // Make the minimal direction look congested and the detour free.
  auto g = cycle_graph(16);
  auto t = Tables::build(g);
  auto idx = NextHopIndex::build(g, t);
  const ExactOracle oracle{t, idx};
  // src 0 -> dst 3: minimal goes via neighbor 1; make port(0->1) loaded.
  auto probe = [&g](Vertex at, std::uint16_t slot) -> std::uint64_t {
    return (at == 0 && g.neighbors(at)[slot] == 1) ? 1'000'000 : 0;
  };
  std::size_t diverted = 0;
  for (std::uint64_t e = 1; e <= 50; ++e) {
    auto r = source_decision(Algo::kUgalL, oracle, 0, 3, e, probe);
    if (r.valiant) ++diverted;
  }
  EXPECT_GT(diverted, 25u);
}

TEST(Policy, NextHopAdvancesValiantPhase) {
  auto g = cycle_graph(12);
  auto t = Tables::build(g);
  auto idx = NextHopIndex::build(g, t);
  const ExactOracle oracle{t, idx};
  PacketRoute r;
  r.valiant = true;
  r.intermediate = 3;
  // At the intermediate the phase flips and we head to the destination.
  const Hop next = next_hop(oracle, 3, 9, r, 7);
  EXPECT_EQ(r.phase, 1);
  EXPECT_EQ(g.neighbors(3)[next.slot], next.vert);
  EXPECT_EQ(t.distance(next.vert, 9) + 1, t.distance(3, 9));
}

TEST(Tables, BitwiseEqualAtEveryPoolWidth) {
  const Graph g = topo::lps_graph({11, 7});
  const Tables ref = Tables::build(g);
  const NextHopIndex ref_idx = NextHopIndex::build(g, ref);
  for (unsigned w : {1u, 2u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(w));
    TaskPool pool(w);
    const Tables t = Tables::build(g, &pool);
    EXPECT_EQ(t.diameter(), ref.diameter());
    EXPECT_TRUE(std::ranges::equal(t.raw_distances(), ref.raw_distances()));
    const NextHopIndex idx = NextHopIndex::build(g, t, &pool);
    EXPECT_EQ(idx.words(), ref_idx.words());
    EXPECT_TRUE(std::ranges::equal(idx.raw_masks(), ref_idx.raw_masks()));
    // A chunk's failure still surfaces from a pooled build.
    EXPECT_THROW(Tables::build(Graph::from_edges(40, {{0, 1}}), &pool),
                 std::runtime_error);
  }
}

TEST(Tables, DistancesEqualBfsAtEveryPoolWidth) {
  // Paley(137) has radix 68 and n not a multiple of 8; LPS(11,7) with 10%
  // of its links deleted is irregular.
  const std::vector<Graph> graphs = {
      topo::paley_graph({137}),
      delete_random_edges(topo::lps_graph({11, 7}), 0.1, 3)};
  for (const Graph& g : graphs) {
    ASSERT_TRUE(is_connected(g));
    const Vertex n = g.num_vertices();
    for (unsigned w : {1u, 2u, 4u}) {
      SCOPED_TRACE("n " + std::to_string(n) + " width " + std::to_string(w));
      TaskPool pool(w);
      const Tables t = Tables::build(g, &pool);
      std::int32_t diameter = 0;
      for (Vertex u = 0; u < n; ++u) {
        const auto d = bfs_distances(g, u);
        for (Vertex v = 0; v < n; ++v) ASSERT_EQ(t.distance(u, v), d[v]);
        diameter = std::max(diameter, *std::ranges::max_element(d));
      }
      EXPECT_EQ(t.diameter(), diameter);
    }
  }
}

// The exception a failing build throws is the one the lowest failing
// source throws: "distance overflow" if some vertex lies 254 or more hops
// from it, else "graph disconnected".
TEST(Tables, ExceptionIsTheLowestFailingSources) {
  auto path = [](Vertex first, Vertex last, Vertex n) {
    std::vector<std::pair<Vertex, Vertex>> e;
    for (Vertex i = first; i < last; ++i) e.emplace_back(i, i + 1);
    return Graph::from_edges(n, std::move(e));
  };
  const std::string overflow = "routing::Tables: distance overflow";
  const std::string disconnected = "routing::Tables: graph disconnected";
  struct Case {
    Graph g;
    std::string what;
  };
  const std::vector<Case> cases = {
      {path(0, 299, 300), overflow},
      {Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}}), disconnected},
      {path(0, 299, 301), overflow},      // plus an isolated vertex 300
      {path(1, 300, 301), disconnected},  // isolated vertex 0 plus a path
  };
  for (unsigned w : {1u, 4u}) {
    TaskPool pool(w);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE("case " + std::to_string(i) + " width " + std::to_string(w));
      try {
        (void)Tables::build(cases[i].g, &pool);
        ADD_FAILURE() << "no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), cases[i].what);
      }
    }
  }
  // A path of 254 vertices spans 253 hops, the deepest a build stores.
  const Tables t = Tables::build(path(0, 253, 254));
  EXPECT_EQ(t.diameter(), 253);
  EXPECT_THROW(Tables::build(path(0, 254, 255)), std::runtime_error);
}

}  // namespace
}  // namespace sfly::routing
