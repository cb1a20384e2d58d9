#include "layout/latency.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "util/parallel.hpp"

namespace sfly::layout {

LatencyStatsPhys physical_latency(const Graph& g, const Placement& placement,
                                  double switch_latency_ns, TaskPool* pool) {
  const Vertex n = g.num_vertices();
  const auto offsets = g.raw_offsets();
  const auto adj = g.raw_adjacency();
  // Hop cost per adjacency entry, computed once rather than per source.
  std::vector<double> cost(adj.size());
  for (Vertex u = 0; u < n; ++u)
    for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e)
      cost[e] = placement.wire_length(u, adj[e]) * kCableDelayNsPerM +
                switch_latency_ns;

  struct Chunk {
    double total = 0.0, max = 0.0;
    std::uint64_t pairs = 0;
  };
  const auto chunks = TaskPool::parallel_for(
      pool, n, 4, [&](std::size_t lo, std::size_t hi) {
        Chunk c;
        std::vector<double> dist;
        using Item = std::pair<double, Vertex>;
        for (std::size_t s = lo; s < hi; ++s) {
          dist.assign(n, std::numeric_limits<double>::infinity());
          std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
          dist[s] = 0.0;
          pq.emplace(0.0, static_cast<Vertex>(s));
          while (!pq.empty()) {
            auto [d, u] = pq.top();
            pq.pop();
            if (d > dist[u]) continue;
            for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
              const Vertex v = adj[e];
              if (dist[u] + cost[e] < dist[v]) {
                dist[v] = dist[u] + cost[e];
                pq.emplace(dist[v], v);
              }
            }
          }
          for (Vertex v = 0; v < n; ++v) {
            if (v == s || dist[v] == std::numeric_limits<double>::infinity())
              continue;
            c.total += dist[v];
            ++c.pairs;
            if (dist[v] > c.max) c.max = dist[v];
          }
        }
        return c;
      });

  // Chunk order, not completion order: the same mean bits at any width.
  Chunk all;
  for (const Chunk& c : chunks) {
    all.total += c.total;
    all.pairs += c.pairs;
    all.max = std::max(all.max, c.max);
  }
  return {all.pairs ? all.total / static_cast<double>(all.pairs) : 0.0,
          all.max};
}

}  // namespace sfly::layout
