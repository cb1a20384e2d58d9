#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "graph/failures.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "util/rng.hpp"

namespace sfly {
namespace {

Graph cycle_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < n; ++i) e.emplace_back(i, (i + 1) % n);
  return Graph::from_edges(n, std::move(e));
}

Graph complete_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < n; ++i)
    for (Vertex j = i + 1; j < n; ++j) e.emplace_back(i, j);
  return Graph::from_edges(n, std::move(e));
}

Graph petersen() {
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < 5; ++i) {
    e.emplace_back(i, (i + 1) % 5);
    e.emplace_back(i + 5, (i + 2) % 5 + 5);
    e.emplace_back(i, i + 5);
  }
  return Graph::from_edges(10, std::move(e));
}

Graph hypercube(unsigned d) {
  Vertex n = 1u << d;
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex v = 0; v < n; ++v)
    for (unsigned b = 0; b < d; ++b)
      if (!(v & (1u << b))) e.emplace_back(v, v | (1u << b));
  return Graph::from_edges(n, std::move(e));
}

TEST(Metrics, BfsDistancesOnCycle) {
  auto d = bfs_distances(cycle_graph(8), 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[4], 4);
  EXPECT_EQ(d[7], 1);
}

TEST(Metrics, DistanceStatsCycle) {
  auto s = distance_stats(cycle_graph(8));
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.diameter, 4);
  // Mean distance on C8: (1+2+3+4+3+2+1)/7 = 16/7.
  EXPECT_NEAR(s.mean_distance, 16.0 / 7.0, 1e-12);
  // Histogram: 8 vertices * 2 at distance 1,2,3; *1 at distance 4.
  ASSERT_EQ(s.histogram.size(), 5u);
  EXPECT_EQ(s.histogram[1], 16u);
  EXPECT_EQ(s.histogram[4], 8u);
}

TEST(Metrics, DistanceStatsComplete) {
  auto s = distance_stats(complete_graph(7));
  EXPECT_EQ(s.diameter, 1);
  EXPECT_DOUBLE_EQ(s.mean_distance, 1.0);
}

TEST(Metrics, HypercubeDiameterAndMean) {
  auto s = distance_stats(hypercube(4));
  EXPECT_EQ(s.diameter, 4);
  EXPECT_NEAR(s.mean_distance, 4 * 8.0 / 15.0 * 1.0, 1e-9);
  // Mean distance of Q_d is d*2^(d-1)/(2^d - 1) = 32/15 for d=4.
  EXPECT_NEAR(s.mean_distance, 32.0 / 15.0, 1e-9);
}

TEST(Metrics, GirthKnownGraphs) {
  EXPECT_EQ(girth(cycle_graph(9)), 9u);
  EXPECT_EQ(girth(complete_graph(4)), 3u);
  EXPECT_EQ(girth(petersen()), 5u);
  EXPECT_EQ(girth(hypercube(3)), 4u);
}

TEST(Metrics, GirthForest) {
  auto g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(girth(g), 0u);
}

TEST(Metrics, Components) {
  auto g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(num_components(g), 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
}

TEST(Metrics, DisconnectedStatsFlag) {
  auto g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  auto s = distance_stats(g);
  EXPECT_FALSE(s.connected);
}

TEST(Metrics, Bipartiteness) {
  std::vector<std::uint8_t> side;
  EXPECT_TRUE(is_bipartite(cycle_graph(8), &side));
  EXPECT_NE(side[0], side[1]);
  EXPECT_FALSE(is_bipartite(cycle_graph(7)));
  EXPECT_TRUE(is_bipartite(hypercube(4)));
  EXPECT_FALSE(is_bipartite(petersen()));
}

TEST(Metrics, Eccentricity) {
  auto g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(eccentricity(g, 0), 3);
  EXPECT_EQ(eccentricity(g, 1), 2);
}

// ---------- bit-parallel all-sources BFS vs per-source scalar BFS ----------

// Pair counts by hop distance from one bfs_distances call per source.
std::vector<std::uint64_t> reference_histogram(const Graph& g, std::span<const Vertex> sources) {
  std::vector<std::uint64_t> hist(1, 0);
  for (Vertex s : sources)
    for (std::int32_t d : bfs_distances(g, s)) {
      if (d <= 0) continue;
      if (static_cast<std::size_t>(d) >= hist.size()) hist.resize(d + 1, 0);
      ++hist[d];
    }
  return hist;
}

// The scalar all-sources loop the batched kernel replaced, run serially.
DistanceStats reference_stats(const Graph& g) {
  DistanceStats ref;
  const Vertex n = g.num_vertices();
  if (n == 0) return ref;
  ref.histogram.assign(1, 0);
  std::uint64_t reached = 0;
  double total = 0.0;
  for (Vertex s = 0; s < n; ++s)
    for (std::int32_t d : bfs_distances(g, s)) {
      if (d == kUnreachable) {
        ref.connected = false;
        continue;
      }
      ref.diameter = std::max(ref.diameter, d);
      if (d == 0) continue;
      if (static_cast<std::size_t>(d) >= ref.histogram.size()) ref.histogram.resize(d + 1, 0);
      ++ref.histogram[d];
      ++reached;
      total += d;
    }
  ref.mean_distance = reached ? total / static_cast<double>(reached) : 0.0;
  return ref;
}

void expect_matches_reference(const Graph& g) {
  const DistanceStats ref = reference_stats(g);
  const DistanceStats s = distance_stats(g);
  EXPECT_EQ(s.histogram, ref.histogram);
  EXPECT_EQ(s.diameter, ref.diameter);
  EXPECT_EQ(s.connected, ref.connected);
  EXPECT_EQ(s.mean_distance, ref.mean_distance);
}

// Random graph with about `avg_degree * n / 2` edges: isolated vertices and
// several components at low degree, one component at high degree.
Graph random_graph(Vertex n, double avg_degree, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Vertex, Vertex>> e;
  if (n >= 2) {
    const auto m = static_cast<std::size_t>(avg_degree * n / 2);
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<Vertex>(uniform_below(rng, n));
      const auto v = static_cast<Vertex>(uniform_below(rng, n));
      if (u != v) e.emplace_back(u, v);
    }
  }
  return Graph::from_edges(n, std::move(e));
}

TEST(DistanceStatsBatched, MatchesScalarAcrossBatchBoundaries) {
  for (Vertex n : {0u, 1u, 2u, 63u, 64u, 65u, 255u, 256u, 257u, 513u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_matches_reference(Graph::from_edges(n, {}));  // edgeless
    if (n >= 3) expect_matches_reference(cycle_graph(n));
    expect_matches_reference(random_graph(n, 1.2, n));      // isolated + components
    expect_matches_reference(random_graph(n, 6.0, n + 1));  // mostly one component
  }
}

TEST(DistanceStatsBatched, EdgelessAndEmptyShapes) {
  EXPECT_TRUE(distance_stats(Graph::from_edges(0, {})).histogram.empty());
  const auto s = distance_stats(Graph::from_edges(5, {}));
  EXPECT_EQ(s.histogram, std::vector<std::uint64_t>{0});
  EXPECT_EQ(s.diameter, 0);
  EXPECT_FALSE(s.connected);
  EXPECT_EQ(s.mean_distance, 0.0);
  EXPECT_TRUE(distance_stats(Graph::from_edges(1, {})).connected);
}

TEST(DistanceStatsBatched, MultiComponentGraph) {
  // Two cycles of different diameter, a path, and isolated vertices.
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < 100; ++i) e.emplace_back(i, (i + 1) % 100);
  for (Vertex i = 0; i < 180; ++i) e.emplace_back(100 + i, 100 + (i + 1) % 180);
  for (Vertex i = 0; i < 20; ++i) e.emplace_back(280 + i, 281 + i);
  const Graph g = Graph::from_edges(310, std::move(e));
  expect_matches_reference(g);
  EXPECT_EQ(distance_stats(g).diameter, 90);
}

TEST(DistanceStatsBatched, FailedPaperTopologies) {
  const Graph lps = topo::lps_graph({23, 11});
  const Graph df = topo::dragonfly_graph(topo::DragonFlyParams::canonical(24));
  for (double f : {0.1, 0.2, 0.3, 0.4}) {
    SCOPED_TRACE("fraction " + std::to_string(f));
    expect_matches_reference(delete_random_edges(lps, f, 7));
    expect_matches_reference(delete_random_edges(df, f, 7));
  }
}

TEST(DistanceStatsBatched, HopHistogramCountsRepeatedSources) {
  const Graph g = delete_random_edges(topo::lps_graph({23, 11}), 0.3, 5);
  Rng rng(11);
  std::vector<Vertex> sampled(300);  // with replacement, spans two batches
  for (auto& s : sampled) s = static_cast<Vertex>(uniform_below(rng, g.num_vertices()));
  const std::vector<Vertex> same(256, 17);  // one full batch of one source
  EXPECT_EQ(hop_histogram(g, sampled), reference_histogram(g, sampled));
  EXPECT_EQ(hop_histogram(g, same), reference_histogram(g, same));
  EXPECT_EQ(hop_histogram(g, {}), std::vector<std::uint64_t>{0});
}

}  // namespace
}  // namespace sfly
