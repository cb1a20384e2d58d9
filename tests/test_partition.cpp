#include "partition/bisection.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/failures.hpp"
#include "partition/recursive_bisection.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"
#include "util/rng.hpp"

namespace sfly {
namespace {

Graph complete_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < n; ++i)
    for (Vertex j = i + 1; j < n; ++j) e.emplace_back(i, j);
  return Graph::from_edges(n, std::move(e));
}

Graph cycle_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < n; ++i) e.emplace_back(i, (i + 1) % n);
  return Graph::from_edges(n, std::move(e));
}

// Two K_m cliques joined by a single bridge edge: optimal cut = 1.
Graph barbell(Vertex m) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < m; ++i)
    for (Vertex j = i + 1; j < m; ++j) {
      e.emplace_back(i, j);
      e.emplace_back(m + i, m + j);
    }
  e.emplace_back(0, m);
  return Graph::from_edges(2 * m, std::move(e));
}

// 2D torus grid r x c.
Graph torus(Vertex r, Vertex c) {
  std::vector<std::pair<Vertex, Vertex>> e;
  auto id = [&](Vertex i, Vertex j) { return i * c + j; };
  for (Vertex i = 0; i < r; ++i)
    for (Vertex j = 0; j < c; ++j) {
      e.emplace_back(id(i, j), id((i + 1) % r, j));
      e.emplace_back(id(i, j), id(i, (j + 1) % c));
    }
  return Graph::from_edges(r * c, std::move(e));
}

TEST(Bisection, ExactOnCompleteGraph) {
  // K_n balanced cut = (n/2)^2.
  auto r = bisect(complete_graph(8));
  EXPECT_EQ(r.cut_edges, 16u);
  EXPECT_EQ(r.part_sizes[0], 4u);
  EXPECT_EQ(r.part_sizes[1], 4u);
}

TEST(Bisection, CycleCutsTwo) {
  auto r = bisect(cycle_graph(32));
  EXPECT_EQ(r.cut_edges, 2u);
  EXPECT_EQ(r.part_sizes[0], 16u);
}

TEST(Bisection, BarbellFindsBridge) {
  auto r = bisect(barbell(12));
  EXPECT_EQ(r.cut_edges, 1u);
  EXPECT_EQ(r.part_sizes[0], 12u);
}

TEST(Bisection, OddVertexCountBalanced) {
  auto r = bisect(cycle_graph(33));
  EXPECT_LE(r.cut_edges, 3u);
  EXPECT_EQ(std::abs(static_cast<int>(r.part_sizes[0]) -
                     static_cast<int>(r.part_sizes[1])),
            1);
}

TEST(Bisection, TorusNearOptimal) {
  // 8x16 torus: optimal bisection cuts two "rings" = 2*8 = 16 edges.
  auto r = bisect(torus(8, 16), {.restarts = 8, .seed = 3});
  EXPECT_EQ(r.part_sizes[0], 64u);
  EXPECT_LE(r.cut_edges, 20u);  // near-optimal; METIS-quality heuristic
  EXPECT_GE(r.cut_edges, 16u);  // cannot beat the true optimum
}

TEST(Bisection, CutMatchesSideVector) {
  auto g = torus(6, 6);
  auto r = bisect(g);
  std::uint64_t recount = 0;
  for (auto [u, v] : g.edge_list())
    if (r.side[u] != r.side[v]) ++recount;
  EXPECT_EQ(recount, r.cut_edges);
}

TEST(Bisection, DeterministicForSeed) {
  auto g = torus(8, 8);
  auto a = bisect(g, {.restarts = 2, .seed = 5});
  auto b = bisect(g, {.restarts = 2, .seed = 5});
  EXPECT_EQ(a.cut_edges, b.cut_edges);
  EXPECT_EQ(a.side, b.side);
}

TEST(Bisection, NormalizedScale) {
  // Random bipartition of K_n scores about 1/2 under the nk/2 scale; the
  // optimal cut of K_8 (16 edges) over 8*7/2 = 28 gives 0.571... — complete
  // graphs have no good bisection, the value must exceed 1/2.
  double nb = normalized_bisection_bandwidth(complete_graph(8));
  EXPECT_NEAR(nb, 16.0 / 28.0, 1e-9);
  // A cycle has an excellent (tiny) bisection.
  EXPECT_LT(normalized_bisection_bandwidth(cycle_graph(64)), 0.05);
}

TEST(Bisection, EmptyGraphCutsZero) {
  // Regression: the region grower drew a start vertex from an empty range
  // and read past the end of its seen[] array.
  auto r = bisect(Graph::from_edges(0, {}));
  EXPECT_EQ(r.cut_edges, 0u);
  EXPECT_TRUE(r.side.empty());
  EXPECT_EQ(r.part_sizes[0] + r.part_sizes[1], 0u);
}

TEST(Bisection, RejectsRestartsBelowOne) {
  // Zero restarts used to return cut_edges = UINT64_MAX with an empty side.
  const auto g = cycle_graph(8);
  EXPECT_THROW((void)bisect(g, {.restarts = 0}), std::invalid_argument);
  EXPECT_THROW((void)bisect(g, {.restarts = -1}), std::invalid_argument);
  EXPECT_THROW((void)bisection_bandwidth(g, {.restarts = 0}), std::invalid_argument);
}

TEST(RecursiveBisection, RejectsRestartsBelowOne) {
  // Zero restarts used to index the empty side vector of the failed split.
  const auto g = cycle_graph(16);
  EXPECT_THROW((void)partition::recursive_bisection(g, {.max_cell_size = 4, .restarts = 0}),
               std::invalid_argument);
  EXPECT_EQ(partition::recursive_bisection(g, {.max_cell_size = 4, .restarts = 1}).num_cells,
            4u);
}

// Disjoint union of graphs, remapping each component's ids by `shift`.
Graph disjoint_union(std::initializer_list<Graph> parts) {
  std::vector<std::pair<Vertex, Vertex>> e;
  Vertex shift = 0;
  for (const Graph& g : parts) {
    for (auto [u, v] : g.edge_list()) e.emplace_back(shift + u, shift + v);
    shift += g.num_vertices();
  }
  return Graph::from_edges(shift, std::move(e));
}

TEST(BisectionDisconnected, TwoCliquesCutZero) {
  // Regression: the BFS grower used to exhaust the first component and
  // top side 0 up with leftover vertices in raw index order, splitting
  // whole components across the cut for no reason.  Two disjoint K4s
  // admit a perfect zero-cut bisection.
  auto r = bisect(disjoint_union({complete_graph(4), complete_graph(4)}));
  EXPECT_EQ(r.cut_edges, 0u);
  EXPECT_EQ(r.part_sizes[0], 4u);
  EXPECT_EQ(r.part_sizes[1], 4u);
}

TEST(BisectionDisconnected, InterleavedIdsCutZero) {
  // Two 16-cycles on even and odd vertex ids — components whose ids
  // interleave, so any index-order assignment mixes them.
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < 16; ++i) {
    e.emplace_back(2 * i, 2 * ((i + 1) % 16));
    e.emplace_back(2 * i + 1, 2 * ((i + 1) % 16) + 1);
  }
  auto r = bisect(Graph::from_edges(32, std::move(e)));
  EXPECT_EQ(r.cut_edges, 0u);
  EXPECT_EQ(r.part_sizes[0], 16u);
  EXPECT_EQ(r.part_sizes[1], 16u);
}

TEST(BisectionDisconnected, CliquePlusIsolatedVerticesCutZero) {
  // K6 plus six isolated vertices: the clique packs whole onto one side,
  // the singletons fill the other.
  auto r = bisect(disjoint_union({complete_graph(6), Graph::from_edges(6, {})}));
  EXPECT_EQ(r.cut_edges, 0u);
  EXPECT_EQ(r.part_sizes[0], 6u);
  EXPECT_EQ(r.part_sizes[1], 6u);
}

TEST(BisectionDisconnected, BalancedWhenNoExactPackingExists) {
  // Components of sizes 5 / 4 / 3: no subset sums to 6, so strict balance
  // must cut something — but the split stays exactly balanced and the
  // side vector matches the reported cut.
  auto g = disjoint_union({cycle_graph(5), cycle_graph(4), cycle_graph(3)});
  auto r = bisect(g);
  EXPECT_EQ(r.part_sizes[0], 6u);
  EXPECT_EQ(r.part_sizes[1], 6u);
  std::uint64_t recount = 0;
  for (auto [u, v] : g.edge_list())
    if (r.side[u] != r.side[v]) ++recount;
  EXPECT_EQ(recount, r.cut_edges);
  EXPECT_LE(r.cut_edges, 4u);  // at worst split the smallest cycle
}

TEST(BisectionDisconnected, DeterministicForSeed) {
  auto g = disjoint_union({cycle_graph(9), complete_graph(5), cycle_graph(6)});
  auto a = bisect(g, {.restarts = 2, .seed = 7});
  auto b = bisect(g, {.restarts = 2, .seed = 7});
  EXPECT_EQ(a.cut_edges, b.cut_edges);
  EXPECT_EQ(a.side, b.side);
}

// Byte pins for the bisector's picks: cut plus an FNV-1a fold of the side
// vector on the fig5 graph shapes (intact and failure-perturbed), a torus
// and a disconnected union.  Any change to coarsening, FM move order or
// balancing that moves a single vertex fails these; a change that moves
// cuts on purpose must re-pin them.
template <typename T>
std::uint64_t fnv1a(const std::vector<T>& xs) {
  std::uint64_t h = 14695981039346656037ull;
  for (T x : xs) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ull;
  }
  return h;
}

struct Pin {
  std::uint64_t cut;
  std::uint64_t digest;
};

Pin pin_of(const Graph& g) {
  const auto r = bisect(g, {.restarts = 2, .seed = 1});
  return {r.cut_edges, fnv1a(r.side)};
}

void expect_pin(const Graph& g, Pin want) {
  const Pin got = pin_of(g);
  EXPECT_EQ(got.cut, want.cut);
  EXPECT_EQ(got.digest, want.digest) << std::hex << "0x" << got.digest;
}

TEST(BisectionPins, LpsIntact) {
  expect_pin(topo::lps_graph({23, 11}), {2876, 0xf736dcf031cbcc9dull});
}

TEST(BisectionPins, LpsThirtyPercentFailed) {
  expect_pin(delete_random_edges(topo::lps_graph({23, 11}), 0.3, 7),
             {1831, 0x3c5c539c272c84adull});
}

TEST(BisectionPins, SlimFlyTwentyPercentFailed) {
  expect_pin(delete_random_edges(topo::slimfly_graph({17}), 0.2, 7),
             {1944, 0x2e4d6c2ff26e5736ull});
}

TEST(BisectionPins, DragonFlyThirtyPercentFailed) {
  expect_pin(delete_random_edges(
                 topo::dragonfly_graph(topo::DragonFlyParams::canonical(24)), 0.3, 7),
             {176, 0x5b77cfa70d27c299ull});
}

TEST(BisectionPins, Torus) { expect_pin(torus(8, 16), {16, 0x6d1d62084d3e85e5ull}); }

TEST(BisectionPins, DisconnectedUnion) {
  // Components-first path: sizes 9 / 5 / 6 / 13 admit no exact packing.
  expect_pin(disjoint_union({cycle_graph(9), complete_graph(5), cycle_graph(6),
                             cycle_graph(13)}),
             {2, 0x087a8559d8a2ef7dull});
}

TEST(BisectionPins, RecursiveBisectionCells) {
  const auto part = partition::recursive_bisection(topo::lps_graph({23, 11}));
  EXPECT_EQ(part.num_cells, 16u);
  const std::uint64_t digest = fnv1a(part.cell_of);
  EXPECT_EQ(digest, 0x64875e6c66726ccaull) << std::hex << "0x" << digest;
}

}  // namespace
}  // namespace sfly
