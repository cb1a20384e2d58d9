#include "partition/bisection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/failures.hpp"
#include "partition/gain_buckets.hpp"
#include "partition/recursive_bisection.hpp"
#include "topo/bundlefly.hpp"
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

// Differential test of FM's gain buckets against a linear scan: seeded
// random sequences of insert / moved_to / erase / clear and capped,
// floored best_fit queries, over vertex counts whose summary bits cover
// one word and several, row bounds from 0 up, and gains well past the rows (the
// ordered overflow set), as on a hub's coarse levels.
struct GainModel {
  std::vector<int> side;  // -1 absent
  std::vector<std::int64_t> gain;

  using Entry = detail::GainBuckets::Entry;
  Entry best_fit(int s, const std::vector<std::uint32_t>& vwgt, std::uint64_t cap,
                 Entry floor) const {
    Entry best = floor;
    for (Vertex v = 0; v < side.size(); ++v)
      if (side[v] == s && vwgt[v] <= cap)
        best = std::max(best, detail::GainBuckets::entry(gain[v], v));
    return best;
  }
};

void run_gain_buckets_case(std::uint64_t seed) {
  using detail::GainBuckets;
  Rng rng(seed);
  const Vertex sizes[] = {1, 7, 64, 65, 300, 4100, 9000};
  const Vertex n = sizes[uniform_below(rng, std::size(sizes))];
  const std::int64_t bound = static_cast<std::int64_t>(uniform_below(rng, 4) == 0
                                                           ? uniform_below(rng, 2500)
                                                           : uniform_below(rng, 40));
  // Gains stay within +-span; a hub-sized span leaves most entries beyond
  // the rows.
  const std::int64_t span = uniform_below(rng, 2) == 0 ? 60 : 3000;
  std::vector<std::uint32_t> vwgt(n);
  for (auto& w : vwgt) w = 1 + static_cast<std::uint32_t>(uniform_below(rng, 6));

  GainBuckets b;
  b.reset(n, bound);
  GainModel m{std::vector<int>(n, -1), std::vector<std::int64_t>(n, 0)};
  auto random_gain = [&] {
    return static_cast<std::int64_t>(uniform_below(rng, 2 * span + 1)) - span;
  };
  // A delta that keeps the gain within +-span.
  auto random_delta = [&](std::int64_t g) {
    const std::int64_t w2 = 2 * (1 + static_cast<std::int64_t>(uniform_below(rng, span / 4)));
    return g + w2 > span ? -w2 : g - w2 < -span ? w2 : uniform_below(rng, 2) ? w2 : -w2;
  };
  auto check_vertex = [&](Vertex v) {
    ASSERT_EQ(b.contains(v), m.side[v] >= 0) << "v=" << v;
    if (m.side[v] < 0) return;
    ASSERT_EQ(b.side_of(v), m.side[v]) << "v=" << v;
    ASSERT_EQ(b.gain_of(v), m.gain[v]) << "v=" << v;
  };

  for (int op = 0; op < 4000; ++op) {
    const Vertex v = static_cast<Vertex>(uniform_below(rng, n));
    switch (uniform_below(rng, 16)) {
      case 0: case 1: case 2: case 3:  // insert
        if (m.side[v] >= 0) break;
        m.side[v] = static_cast<int>(uniform_below(rng, 2));
        m.gain[v] = random_gain();
        b.insert(v, m.side[v], m.gain[v]);
        break;
      case 4: case 5: case 6: {  // one neighbour, present or absent
        const std::int64_t d = random_delta(m.gain[v]);
        // v loses 2w when it sits on `to` and gains 2w otherwise.
        const int to = m.side[v] < 0 ? static_cast<int>(uniform_below(rng, 2))
                                     : (d < 0 ? m.side[v] : 1 - m.side[v]);
        if (m.side[v] >= 0) m.gain[v] += d;
        const auto w = static_cast<std::uint32_t>(std::abs(d) / 2);
        b.moved_to(to, &v, &w, 1);
        break;
      }
      case 7: case 8: {  // one FM move's neighbour updates
        const int to = static_cast<int>(uniform_below(rng, 2));
        std::vector<Vertex> nbr;
        std::vector<std::uint32_t> ew;
        for (int k = 0, deg = static_cast<int>(uniform_below(rng, 12)); k < deg; ++k) {
          const Vertex u = static_cast<Vertex>(uniform_below(rng, n));
          const std::int64_t w = 1 + static_cast<std::int64_t>(uniform_below(rng, 4));
          if (m.side[u] >= 0) {
            const std::int64_t d = m.side[u] == to ? -2 * w : 2 * w;
            if (std::abs(m.gain[u] + d) > span + 8) continue;  // stay in range
            m.gain[u] += d;
          }
          nbr.push_back(u);
          ew.push_back(static_cast<std::uint32_t>(w));
        }
        b.moved_to(to, nbr.data(), ew.data(), nbr.size());
        break;
      }
      case 9: case 10:  // erase
        if (m.side[v] < 0) break;
        m.side[v] = -1;
        b.erase(v);
        break;
      case 11:
        if (uniform_below(rng, 50) != 0) break;
        std::fill(m.side.begin(), m.side.end(), -1);
        b.clear();
        break;
      default: {  // best_fit with a random side, cap and floor
        const int s = static_cast<int>(uniform_below(rng, 2));
        const std::uint64_t cap = uniform_below(rng, 3) == 0 ? ~std::uint64_t{0}
                                                            : uniform_below(rng, 8);
        GainBuckets::Entry floor = GainBuckets::kNone;
        if (uniform_below(rng, 2) == 0)
          floor = GainBuckets::entry(random_gain(), static_cast<Vertex>(uniform_below(rng, n)));
        const auto want = m.best_fit(s, vwgt, cap, floor);
        ASSERT_EQ(b.best_fit(s, vwgt.data(), cap, floor), want)
            << "seed=" << seed << " op=" << op << " n=" << n << " bound=" << bound;
        break;
      }
    }
    check_vertex(v);
  }
  for (Vertex v = 0; v < n; ++v) check_vertex(v);
}

TEST(GainBuckets, MatchesLinearScan) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    run_gain_buckets_case(seed);
    if (HasFatalFailure()) return;
  }
}

// row_bound keeps both sides' rows within n + 2|E| words each and stops at
// the (n/64+1)-th largest weighted degree.
TEST(GainBuckets, RowBoundFitsTheLevel) {
  using detail::GainBuckets;
  const auto words = [](std::size_t bits) { return (bits + 63) / 64; };
  // Star K_{1,20000} plus a leaf ring: the hub alone is past the bound.
  const Vertex n = 20001;
  std::vector<std::int64_t> wdeg(n, 3);
  wdeg[0] = 20000;
  EXPECT_EQ(GainBuckets::row_bound(n, 80000, wdeg), 3);
  Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    const Vertex vn = 1 + static_cast<Vertex>(uniform_below(rng, 6000));
    std::vector<std::int64_t> d(vn);
    std::size_t adjacency = 0;
    for (auto& x : d) {
      x = static_cast<std::int64_t>(uniform_below(rng, 5000));
      adjacency += uniform_below(rng, 40);
    }
    const std::int64_t g = GainBuckets::row_bound(vn, adjacency, d);
    const std::size_t row_words = words(vn) + 1;
    EXPECT_LE(static_cast<std::size_t>(2 * g + 1) * row_words,
              std::max<std::size_t>(row_words, vn + adjacency));
    std::sort(d.begin(), d.end(), std::greater<>());
    EXPECT_LE(g, d[vn / 64]);
  }
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

// fig5's large point: LPS(29,17), 4896 vertices of degree 18.
TEST(BisectionPins, LpsLargeThirtyPercentFailed) {
  expect_pin(delete_random_edges(topo::lps_graph({29, 17}), 0.3, 7),
             {17755, 0x5df06d62b58cc1d3ull});
}

// Irregular degrees: BundleFly's Paley x MMS product after failures.
TEST(BisectionPins, BundleFlyTenPercentFailed) {
  expect_pin(delete_random_edges(
                 topo::bundlefly_graph({37, 3, topo::BundleShift::kAffine}), 0.1, 7),
             {555, 0x3e7dc73fc6147c84ull});
}

// Star K_{1,m} plus a ring over its leaves.
Graph hub_ring(Vertex m) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 1; i <= m; ++i) {
    e.emplace_back(0, i);
    e.emplace_back(i, i % m + 1);
  }
  return Graph::from_edges(m + 1, std::move(e));
}

// The hub's gain spans +-2000 and coarsening makes a few very heavy
// vertices, so FM's weight-capped pick skips entries that do not fit.
TEST(BisectionPins, HubRing) { expect_pin(hub_ring(2000), {1002, 0x8a86714641408687ull}); }

TEST(BisectionPins, RecursiveBisectionCellsDragonFly) {
  const auto part = partition::recursive_bisection(
      topo::dragonfly_graph(topo::DragonFlyParams::canonical(24)));
  EXPECT_EQ(part.num_cells, 16u);
  const std::uint64_t digest = fnv1a(part.cell_of);
  EXPECT_EQ(digest, 0x93c6ad4a58ff9775ull) << std::hex << "0x" << digest;
}

}  // namespace
}  // namespace sfly
