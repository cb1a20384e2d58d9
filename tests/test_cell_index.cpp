// Randomized small-V equivalence harness for the hierarchical cell index:
// on graphs small enough to afford exact all-pairs tables, a cell-mode
// CellIndex (tiny forced cells, so the hierarchy is actually exercised)
// must reproduce the Tables answers exactly — distances, minimal next-hop
// sets, the sampled next hop bit for bit, and every route the shared
// routing decision builds over it.  The index's last caller is
// perfbench's cell probe; test_distance_rows.cpp pins the oracle that
// routes serve from.

#include "routing/cell_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "routing/next_hop_index.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "topo/factory.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace sfly::routing {
namespace {

// Random connected graph: a random spanning tree (each vertex v >= 1
// attaches to a uniform earlier vertex) plus `extra` random non-loop
// edges; duplicates collapse in from_edges.
Graph random_connected_graph(Vertex n, std::size_t extra, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex v = 1; v < n; ++v)
    e.emplace_back(v, static_cast<Vertex>(uniform_below(rng, v)));
  for (std::size_t i = 0; i < extra; ++i) {
    const Vertex u = static_cast<Vertex>(uniform_below(rng, n));
    const Vertex w = static_cast<Vertex>(uniform_below(rng, n));
    if (u != w) e.emplace_back(u, w);
  }
  return Graph::from_edges(n, std::move(e));
}

// Cell-mode options with cells far below the graph size, so every query
// crosses the boundary overlay.
CellIndex::Options tiny_cells(std::uint64_t seed = 1) {
  CellIndex::Options o;
  o.max_cell_size = 8;
  o.seed = seed;
  return o;
}

void expect_equivalent(const Graph& g, const Tables& t, const CellIndex& x) {
  const Vertex n = g.num_vertices();
  CellQuery q = x.make_query(g);
  std::vector<Vertex> want, got;
  for (Vertex dst = 0; dst < n; ++dst) {
    q.prepare(dst);
    for (Vertex u = 0; u < n; ++u) {
      ASSERT_EQ(q.distance(u), t.distance(u, dst))
          << "d(" << u << "," << dst << ")";
      t.minimal_next_hops(g, u, dst, want);
      q.minimal_next_hops(u, got);
      ASSERT_EQ(got, want) << "hops(" << u << "," << dst << ")";
      if (u == dst) continue;
      for (std::uint64_t entropy : {0ull, 1ull, 7ull, 0xDEADBEEFull})
        ASSERT_EQ(q.sample_next_hop(u, entropy),
                  t.sample_next_hop(g, u, dst, entropy))
            << "sample(" << u << "," << dst << "," << entropy << ")";
    }
  }
}

TEST(CellIndex, MatchesTablesOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Vertex n = static_cast<Vertex>(24 + 7 * seed);
    const Graph g = random_connected_graph(n, 2 * n, seed);
    const Tables t = Tables::build(g);
    const CellIndex x = CellIndex::build(g, tiny_cells(seed));
    ASSERT_GT(x.num_cells(), 1u);
    expect_equivalent(g, t, x);
  }
}

TEST(CellIndex, MatchesTablesOnRegisteredTopologies) {
  for (const char* spec : {"Paley(13)", "DF(4)", "Hypercube(4)"}) {
    auto parsed = topo::parse_topology(spec);
    const Graph g = parsed.build();
    const Tables t = Tables::build(g);
    const CellIndex x = CellIndex::build(g, tiny_cells());
    expect_equivalent(g, t, x);
  }
}

TEST(CellIndex, SingleCellGraphStillAnswers) {
  // n <= max_cell_size: one cell, no boundary vertices, intra == exact.
  const Graph g = random_connected_graph(20, 30, 42);
  const Tables t = Tables::build(g);
  CellIndex::Options o;
  o.max_cell_size = 32;
  const CellIndex x = CellIndex::build(g, o);
  EXPECT_EQ(x.num_cells(), 1u);
  EXPECT_EQ(x.num_boundary(), 0u);
  expect_equivalent(g, t, x);
}

TEST(CellIndex, ViewRoundTripAnswersIdentically) {
  const Graph g = random_connected_graph(50, 100, 9);
  const Tables t = Tables::build(g);
  const CellIndex built = CellIndex::build(g, tiny_cells(9));
  const CellIndex view = CellIndex::from_view(built.views());
  EXPECT_FALSE(built.is_view());
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.memory_bytes(), built.memory_bytes());
  expect_equivalent(g, t, view);
}

TEST(CellIndex, DiameterBoundIsAnUpperBound) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = random_connected_graph(60, 90, seed);
    const Tables t = Tables::build(g);
    const CellIndex x = CellIndex::build(g, tiny_cells(seed));
    EXPECT_GE(x.diameter_bound(), t.diameter());
  }
}

TEST(CellIndex, ThrowsOnDisconnected) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  EXPECT_THROW((void)CellIndex::build(g, tiny_cells()), std::runtime_error);
}

TEST(CellIndex, RejectsBadOptions) {
  const Graph g = random_connected_graph(10, 5, 1);
  CellIndex::Options o;
  o.max_cell_size = 0;
  EXPECT_THROW((void)CellIndex::build(g, o), std::invalid_argument);
  o.max_cell_size = 256;
  EXPECT_THROW((void)CellIndex::build(g, o), std::invalid_argument);
}

TEST(CellIndex, DeterministicForSeed) {
  const Graph g = random_connected_graph(64, 120, 5);
  const CellIndex a = CellIndex::build(g, tiny_cells(7));
  const CellIndex b = CellIndex::build(g, tiny_cells(7));
  const auto va = a.views();
  const auto vb = b.views();
  ASSERT_EQ(va.num_cells, vb.num_cells);
  ASSERT_EQ(va.num_boundary, vb.num_boundary);
  EXPECT_TRUE(std::equal(va.cell_of.begin(), va.cell_of.end(),
                         vb.cell_of.begin(), vb.cell_of.end()));
  EXPECT_TRUE(std::equal(va.intra.begin(), va.intra.end(), vb.intra.begin(),
                         vb.intra.end()));
  EXPECT_TRUE(std::equal(va.ov_adj.begin(), va.ov_adj.end(), vb.ov_adj.begin(),
                         vb.ov_adj.end()));
}

TEST(CellIndex, BitwiseEqualAtEveryPoolWidth) {
  // ~90 cells: several chunks in both pooled regions (16 and 64 cells).
  const Graph g = random_connected_graph(700, 1400, 3);
  const CellIndex ref = CellIndex::build(g, tiny_cells(3));
  const auto a = ref.views();
  ASSERT_GT(a.num_cells, 64u);
  auto same = [](auto x, auto y) { return std::ranges::equal(x, y); };
  for (unsigned w : {1u, 2u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(w));
    TaskPool pool(w);
    const CellIndex x = CellIndex::build(g, tiny_cells(3), &pool);
    const auto b = x.views();
    EXPECT_EQ(b.num_cells, a.num_cells);
    EXPECT_EQ(b.num_boundary, a.num_boundary);
    EXPECT_EQ(b.diameter_bound, a.diameter_bound);
    EXPECT_TRUE(same(b.cell_of, a.cell_of));
    EXPECT_TRUE(same(b.cell_offsets, a.cell_offsets));
    EXPECT_TRUE(same(b.members, a.members));
    EXPECT_TRUE(same(b.local_index, a.local_index));
    EXPECT_TRUE(same(b.intra_offsets, a.intra_offsets));
    EXPECT_TRUE(same(b.intra, a.intra));
    EXPECT_TRUE(same(b.boundary_offsets, a.boundary_offsets));
    EXPECT_TRUE(same(b.boundary_local, a.boundary_local));
    EXPECT_TRUE(same(b.overlay_id, a.overlay_id));
    EXPECT_TRUE(same(b.overlay_vertex, a.overlay_vertex));
    EXPECT_TRUE(same(b.ov_offsets, a.ov_offsets));
    EXPECT_TRUE(same(b.ov_adj, a.ov_adj));
    EXPECT_TRUE(same(b.ov_w, a.ov_w));
  }
}

// Cross-oracle equivalence: routing::source_decision plus the next_hop
// walk over a cell-mode CellQuery must reproduce the exact oracle's route
// and every (vertex, slot) hop, for all five algorithms and every ordered
// pair, under an idle and a loaded queue probe.  Destinations are the
// outer loop so the cell oracle re-prepares only when a route needs it.
void expect_same_routes(const Graph& g, const CellIndex& x) {
  const Tables t = Tables::build(g);
  const NextHopIndex idx = NextHopIndex::build(g, t);
  const ExactOracle exact{t, idx};
  CellQuery cell = x.make_query(g);
  const auto idle = [](Vertex, std::uint16_t) { return std::uint64_t{0}; };
  const auto loaded = [](Vertex at, std::uint16_t slot) {
    return split_seed(at, slot) % 4;
  };
  std::size_t diverted = 0;
  auto check = [&](Algo algo, Vertex src, Vertex dst, std::uint64_t e,
                   const auto& probe) {
    PacketRoute a = source_decision(algo, exact, src, dst, e, probe);
    PacketRoute b = source_decision(algo, cell, src, dst, e, probe);
    ASSERT_EQ(a.valiant, b.valiant) << src << "->" << dst;
    ASSERT_EQ(a.intermediate, b.intermediate) << src << "->" << dst;
    if (algo == Algo::kUgalL || algo == Algo::kUgalG) diverted += a.valiant;
    std::uint64_t hop = 0;
    for (Vertex at = src; at != dst; ++hop) {
      ASSERT_LT(hop, 64u) << src << "->" << dst;
      const Hop ha = next_hop(exact, at, dst, a, split_seed(e, hop));
      const Hop hb = next_hop(cell, at, dst, b, split_seed(e, hop));
      ASSERT_EQ(hb.vert, ha.vert) << src << "->" << dst << " hop " << hop;
      ASSERT_EQ(hb.slot, ha.slot) << src << "->" << dst << " hop " << hop;
      ASSERT_EQ(b.phase, a.phase);
      at = ha.vert;
    }
  };
  const Vertex n = g.num_vertices();
  for (Vertex dst = 0; dst < n; ++dst)
    for (Vertex src = 0; src < n; ++src)
      for (Algo algo : {Algo::kMinimal, Algo::kValiant, Algo::kUgalL,
                        Algo::kUgalG, Algo::kAdaptiveMin}) {
        const std::uint64_t e = split_seed(src, dst);
        check(algo, src, dst, e, idle);
        check(algo, src, dst, e, loaded);
        if (::testing::Test::HasFatalFailure()) return;
      }
  EXPECT_GT(diverted, 0u) << "the loaded probe must exercise UGAL's Valiant side";
}

TEST(CellIndex, RoutesMatchExactOracle) {
  for (const char* spec : {"Paley(13)", "LPS(11,7)"}) {
    SCOPED_TRACE(spec);
    const Graph g = topo::parse_topology(spec).build();
    const CellIndex x = CellIndex::build(g, tiny_cells());
    ASSERT_GT(x.num_cells(), 1u);
    expect_same_routes(g, x);
  }
}

}  // namespace
}  // namespace sfly::routing
