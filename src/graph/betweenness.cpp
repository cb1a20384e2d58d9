#include "graph/betweenness.hpp"

#include <algorithm>

namespace sfly {

std::vector<double> betweenness_centrality(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<double> bc(n, 0.0);
  std::vector<Vertex> order;          // BFS visit order (stack for Brandes)
  std::vector<std::int32_t> dist(n);
  std::vector<double> sigma(n);       // shortest-path counts
  std::vector<double> delta(n);       // dependency accumulation
  order.reserve(n);

  for (Vertex s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();
    dist[s] = 0;
    sigma[s] = 1.0;
    order.push_back(s);
    for (std::size_t head = 0; head < order.size(); ++head) {
      Vertex u = order[head];
      for (Vertex v : g.neighbors(u)) {
        if (dist[v] == -1) {
          dist[v] = dist[u] + 1;
          order.push_back(v);
        }
        if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
      }
    }
    // Dependency pass in reverse BFS order.
    for (std::size_t i = order.size(); i-- > 1;) {
      Vertex w = order[i];
      for (Vertex u : g.neighbors(w))
        if (dist[u] + 1 == dist[w])
          delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w]);
      bc[w] += delta[w];
    }
  }
  // Each unordered pair counted from both endpoints.
  for (double& x : bc) x /= 2.0;
  return bc;
}

BetweennessSummary betweenness_summary(const Graph& g) {
  auto bc = betweenness_centrality(g);
  BetweennessSummary out;
  if (bc.empty()) return out;
  out.min = *std::min_element(bc.begin(), bc.end());
  out.max = *std::max_element(bc.begin(), bc.end());
  double sum = 0.0;
  for (double x : bc) sum += x;
  out.mean = sum / static_cast<double>(bc.size());
  out.imbalance = out.mean > 0 ? out.max / out.mean : 1.0;
  return out;
}

}  // namespace sfly
