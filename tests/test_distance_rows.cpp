// Distance-row oracle pins: a row viewed from the all-pairs Tables and a
// row filled by one BFS are the same bytes; pick() is the hop
// Tables::sample_next_hop returns (with its adjacency slot); and the
// shared routing decision over DistanceRows builds the route ExactOracle
// builds, hop for hop, for every algorithm and ordered pair.  sflyd's
// route handler serves every answer from this oracle.

#include "routing/distance_rows.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/failures.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "topo/factory.hpp"
#include "topo/lps.hpp"
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

struct Case {
  std::string name;
  Graph g;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto n = static_cast<Vertex>(20 + 13 * seed);
    out.push_back({"random seed " + std::to_string(seed),
                   random_connected_graph(n, seed * n / 2, seed)});
  }
  out.push_back({"Paley(13)", topo::parse_topology("Paley(13)").build()});
  out.push_back({"LPS(11,7)", topo::lps_graph({11, 7})});
  out.push_back({"LPS(11,7) 10% failed",
                 delete_random_edges(topo::lps_graph({11, 7}), 0.1, 3)});
  return out;
}

TEST(DistanceRows, TablesAndBfsRowsAreByteEqual) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Tables t = Tables::build(c.g);
    DistanceRows viewed(c.g, &t), searched(c.g);
    const Vertex n = c.g.num_vertices();
    for (Vertex dst = 0; dst < n; ++dst) {
      viewed.prepare(dst);
      searched.prepare(dst);
      ASSERT_EQ(viewed.dst(), dst);
      ASSERT_EQ(searched.dst(), dst);
      for (Vertex u = 0; u < n; ++u) {
        ASSERT_EQ(searched.distance(u), viewed.distance(u)) << u << "->" << dst;
        ASSERT_EQ(viewed.distance(u), t.distance(u, dst)) << u << "->" << dst;
      }
    }
  }
}

TEST(DistanceRows, PicksMatchSampleNextHop) {
  // Every pick index 0..c-1 of each minimal set, plus entropies far past
  // any radix, from both row sources.
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Tables t = Tables::build(c.g);
    DistanceRows viewed(c.g, &t), searched(c.g);
    const Vertex n = c.g.num_vertices();
    std::vector<Vertex> hops;
    for (Vertex dst = 0; dst < n; ++dst) {
      viewed.prepare(dst);
      searched.prepare(dst);
      for (Vertex u = 0; u < n; ++u) {
        if (u == dst) continue;
        t.minimal_next_hops(c.g, u, dst, hops);
        std::vector<std::uint64_t> entropies;
        for (std::uint64_t e = 0; e < hops.size(); ++e) entropies.push_back(e);
        for (std::uint64_t e : {std::uint64_t{0xDEADBEEF}, split_seed(u, dst), ~std::uint64_t{0}})
          entropies.push_back(e);
        for (std::uint64_t e : entropies) {
          const Vertex want = t.sample_next_hop(c.g, u, dst, e);
          for (const DistanceRows* rows : {&viewed, &searched}) {
            const Hop h = rows->pick(u, e);
            ASSERT_EQ(h.vert, want) << u << "->" << dst << " entropy " << e;
            ASSERT_EQ(c.g.neighbors(u)[h.slot], want) << u << "->" << dst;
          }
        }
      }
    }
  }
}

TEST(DistanceRows, PickThrowsAtTheDestination) {
  const Graph g = topo::parse_topology("Paley(13)").build();
  DistanceRows rows(g);
  rows.prepare(4);
  EXPECT_EQ(rows.distance(4), 0u);
  EXPECT_THROW((void)rows.pick(4, 0), std::logic_error);
}

TEST(DistanceRows, BfsThrowsOnDistanceOverflow) {
  // A 260-vertex path: vertex 259 is 259 hops from vertex 0, past the
  // 253 a byte row holds (the all-pairs tables stop at the same point).
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex v = 1; v < 260; ++v) e.emplace_back(v - 1, v);
  const Graph g = Graph::from_edges(260, std::move(e));
  DistanceRows rows(g);
  EXPECT_THROW(rows.prepare(0), std::runtime_error);
  EXPECT_EQ(rows.dst(), g.num_vertices());  // no half-filled row is current
  rows.prepare(130);  // 130 hops either way: fits
  EXPECT_EQ(rows.distance(0), 130u);
  EXPECT_THROW((void)Tables::build(g), std::runtime_error);
}

// source_decision plus the next_hop walk over DistanceRows must build the
// route ExactOracle builds: the Valiant choice and intermediate, and every
// (vertex, slot) hop and phase, under an idle and a loaded queue probe.
// Destinations are the outer loop, as sflyd's queries switch targets.
void expect_same_routes(const Graph& g, const Tables* source) {
  const Tables t = Tables::build(g);
  const NextHopIndex idx = NextHopIndex::build(g, t);
  const ExactOracle exact{t, idx};
  DistanceRows rows(g, source);
  const auto idle = [](Vertex, std::uint16_t) { return std::uint64_t{0}; };
  const auto loaded = [](Vertex at, std::uint16_t slot) {
    return split_seed(at, slot) % 4;
  };
  std::size_t diverted = 0;
  auto check = [&](Algo algo, Vertex src, Vertex dst, std::uint64_t e,
                   const auto& probe) {
    PacketRoute a = source_decision(algo, exact, src, dst, e, probe);
    PacketRoute b = source_decision(algo, rows, src, dst, e, probe);
    ASSERT_EQ(a.valiant, b.valiant) << src << "->" << dst;
    ASSERT_EQ(a.intermediate, b.intermediate) << src << "->" << dst;
    if (algo == Algo::kUgalL || algo == Algo::kUgalG) diverted += a.valiant;
    std::uint64_t hop = 0;
    for (Vertex at = src; at != dst; ++hop) {
      ASSERT_LT(hop, 64u) << src << "->" << dst;
      const Hop ha = next_hop(exact, at, dst, a, split_seed(e, hop));
      const Hop hb = next_hop(rows, at, dst, b, split_seed(e, hop));
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

TEST(DistanceRows, RoutesMatchExactOracle) {
  for (const char* spec : {"Paley(13)", "LPS(11,7)"}) {
    SCOPED_TRACE(spec);
    const Graph g = topo::parse_topology(spec).build();
    const Tables t = Tables::build(g);
    {
      SCOPED_TRACE("rows from Tables");
      expect_same_routes(g, &t);
    }
    {
      SCOPED_TRACE("rows from BFS");
      expect_same_routes(g, nullptr);
    }
  }
}

}  // namespace
}  // namespace sfly::routing
