#pragma once
// Betweenness centrality (Brandes' algorithm).
//
// Section V motivates non-minimal routing by pointing at routers with
// high betweenness — vertices sitting on many shortest paths become
// bottlenecks in a saturated network.  Vertex-transitive topologies like
// SpectralFly have perfectly flat betweenness; DragonFly does not once
// endpoints are attached asymmetrically.

#include <vector>

#include "graph/graph.hpp"

namespace sfly {

/// Exact betweenness centrality of every vertex (unnormalized: the number
/// of shortest paths through v, summed over unordered source/target pairs,
/// fractional for multiplicities).  Serial over sources, in source order.
[[nodiscard]] std::vector<double> betweenness_centrality(const Graph& g);

struct BetweennessSummary {
  double min = 0.0, max = 0.0, mean = 0.0;
  /// max/mean — 1.0 for perfectly flat (vertex-transitive) topologies.
  double imbalance = 1.0;
};

[[nodiscard]] BetweennessSummary betweenness_summary(const Graph& g);

}  // namespace sfly
