#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "graph/builder.hpp"
#include "graph/failures.hpp"
#include "graph/matching.hpp"

namespace sfly {
namespace {

Graph path_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  return Graph::from_edges(n, std::move(e));
}

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

TEST(Graph, BasicCSR) {
  auto g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(1, 3));
}

TEST(Graph, DeduplicatesAndNormalizes) {
  auto g = Graph::from_edges(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, RejectsSelfLoopAndOutOfRange) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), std::out_of_range);
}

TEST(Graph, RegularityCheck) {
  std::uint32_t k = 0;
  EXPECT_TRUE(cycle_graph(5).is_regular(&k));
  EXPECT_EQ(k, 2u);
  EXPECT_FALSE(path_graph(5).is_regular());
  EXPECT_TRUE(complete_graph(6).is_regular(&k));
  EXPECT_EQ(k, 5u);
}

TEST(Graph, EdgeListRoundTrip) {
  auto g = complete_graph(5);
  auto edges = g.edge_list();
  EXPECT_EQ(edges.size(), 10u);
  auto g2 = Graph::from_edges(5, std::move(edges));
  EXPECT_EQ(g2.num_edges(), 10u);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(g2.degree(v), 4u);
}

TEST(GraphBuilder, DropsLoopsSilently) {
  GraphBuilder b(3);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  auto g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Matching, PerfectOnEvenCycle) {
  auto g = cycle_graph(10);
  auto m = maximal_matching(g, 7);
  EXPECT_EQ(matching_size(m), 5u);
  for (Vertex v = 0; v < 10; ++v) {
    ASSERT_NE(m[v], kUnmatched);
    EXPECT_EQ(m[m[v]], v);
    EXPECT_TRUE(g.has_edge(v, m[v]));
  }
}

TEST(Matching, OddCycleLeavesOneFree) {
  auto g = cycle_graph(9);
  auto m = maximal_matching(g, 3);
  EXPECT_EQ(matching_size(m), 4u);
}

TEST(Matching, CompleteGraphPerfect) {
  auto m = maximal_matching(complete_graph(12), 1);
  EXPECT_EQ(matching_size(m), 6u);
}

TEST(Failures, DeletesRequestedFraction) {
  auto g = complete_graph(20);  // 190 edges
  auto h = delete_random_edges(g, 0.1, 42);
  EXPECT_EQ(h.num_edges(), 171u);
  EXPECT_EQ(h.num_vertices(), 20u);
  // Survivor edges are a subset of the original.
  for (auto [u, v] : h.edge_list()) EXPECT_TRUE(g.has_edge(u, v));
}

TEST(Failures, ZeroAndFullFraction) {
  auto g = cycle_graph(8);
  EXPECT_EQ(delete_random_edges(g, 0.0, 1).num_edges(), 8u);
  EXPECT_EQ(delete_random_edges(g, 1.0, 1).num_edges(), 0u);
}

TEST(Failures, DeterministicForSeed) {
  auto g = complete_graph(15);
  auto a = delete_random_edges(g, 0.3, 99).edge_list();
  auto b = delete_random_edges(g, 0.3, 99).edge_list();
  EXPECT_EQ(a, b);
}

TEST(Failures, RejectsOutOfRangeFraction) {
  auto g = cycle_graph(8);
  EXPECT_THROW((void)delete_random_edges(g, -0.1, 1), std::invalid_argument);
  EXPECT_THROW((void)delete_random_edges(g, 1.5, 1), std::invalid_argument);
  EXPECT_THROW((void)delete_random_edges(g, std::nan(""), 1),
               std::invalid_argument);
  EXPECT_THROW(
      (void)delete_random_edges(g, std::numeric_limits<double>::infinity(), 1),
      std::invalid_argument);
}

// --------------------------------------------------------------------------
// Dynamic failure schedules (DESIGN.md §7).

TEST(FailureSchedules, DeterministicSortedAndWellFormed) {
  auto g = complete_graph(8);  // 28 edges
  ChurnSpec spec;
  spec.link_kills = 4;
  spec.router_kills = 2;
  spec.start_ns = 100.0;
  spec.window_ns = 900.0;
  auto s1 = make_failure_schedule(g, spec, 7);
  auto s2 = make_failure_schedule(g, spec, 7);
  ASSERT_EQ(s1.size(), 6u);  // no repair: one down event per kill
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].time_ns, s2[i].time_ns);
    EXPECT_EQ(s1[i].kind, s2[i].kind);
    EXPECT_EQ(s1[i].u, s2[i].u);
    EXPECT_EQ(s1[i].v, s2[i].v);
    if (i) {
      EXPECT_LE(s1[i - 1].time_ns, s1[i].time_ns);  // chronological
    }
    EXPECT_GE(s1[i].time_ns, spec.start_ns);
    EXPECT_LE(s1[i].time_ns, spec.start_ns + spec.window_ns);
    if (s1[i].kind == ChurnKind::kLinkDown) {
      EXPECT_TRUE(g.has_edge(s1[i].u, s1[i].v));  // only real links fail
    } else {
      EXPECT_LT(s1[i].u, g.num_vertices());
    }
  }
  // Distinct sample: no link or router is killed twice.
  std::set<std::pair<Vertex, Vertex>> links;
  std::set<Vertex> routers;
  for (const auto& e : s1) {
    if (e.kind == ChurnKind::kLinkDown) {
      EXPECT_TRUE(links.insert({std::min(e.u, e.v), std::max(e.u, e.v)}).second);
    } else {
      EXPECT_TRUE(routers.insert(e.u).second);
    }
  }
}

TEST(FailureSchedules, RepairPairsEveryDownWithAnUp) {
  auto g = cycle_graph(12);
  ChurnSpec spec;
  spec.link_kills = 3;
  spec.router_kills = 1;
  spec.start_ns = 50.0;
  spec.window_ns = 100.0;
  spec.repair_ns = 777.0;
  auto s = make_failure_schedule(g, spec, 3);
  ASSERT_EQ(s.size(), 8u);  // every down has its matching up
  for (const auto& down : s) {
    if (down.kind != ChurnKind::kLinkDown && down.kind != ChurnKind::kRouterDown)
      continue;
    const auto up_kind = down.kind == ChurnKind::kLinkDown
                             ? ChurnKind::kLinkUp
                             : ChurnKind::kRouterUp;
    bool paired = false;
    for (const auto& up : s)
      paired = paired || (up.kind == up_kind && up.u == down.u &&
                          up.v == down.v &&
                          up.time_ns == down.time_ns + spec.repair_ns);
    EXPECT_TRUE(paired);
  }
}

TEST(FailureSchedules, ClampsKillsAndValidatesTimes) {
  auto g = cycle_graph(4);  // 4 links, 4 routers
  ChurnSpec spec;
  spec.link_kills = 99;
  spec.router_kills = 99;
  EXPECT_EQ(make_failure_schedule(g, spec, 1).size(), 8u);  // clamped

  ChurnSpec bad;
  bad.link_kills = 1;
  bad.start_ns = -1.0;
  EXPECT_THROW((void)make_failure_schedule(g, bad, 1), std::invalid_argument);
  bad.start_ns = 0.0;
  bad.window_ns = std::nan("");
  EXPECT_THROW((void)make_failure_schedule(g, bad, 1), std::invalid_argument);
}

TEST(FailureSchedules, ChurnLabels) {
  ChurnSpec none;
  EXPECT_EQ(churn_label(none), "none");
  ChurnSpec links;
  links.link_kills = 2;
  EXPECT_EQ(churn_label(links), "2L");
  ChurnSpec routers;
  routers.router_kills = 1;
  EXPECT_EQ(churn_label(routers), "1R");
  ChurnSpec both = links;
  both.router_kills = 1;
  EXPECT_EQ(churn_label(both), "2L+1R");
  ChurnSpec healing = links;
  healing.repair_ns = 500.0;
  EXPECT_EQ(churn_label(healing), "2L~");
}

}  // namespace
}  // namespace sfly
