#include "graph/metrics.hpp"
// hop_histogram counts the lanes the multi-source BFS sweep of
// graph/msbfs.hpp reaches per level; routing::Tables::build runs the same
// sweep and stores the levels as distances.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "graph/msbfs.hpp"

namespace sfly {
namespace {

// BFS into a caller-provided scratch vector; returns max distance reached.
std::int32_t bfs_into(const Graph& g, Vertex src, std::vector<std::int32_t>& dist,
                      std::vector<Vertex>& queue) {
  dist.assign(g.num_vertices(), kUnreachable);
  queue.clear();
  queue.push_back(src);
  dist[src] = 0;
  std::int32_t maxd = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    Vertex u = queue[head];
    std::int32_t du = dist[u];
    for (Vertex v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = du + 1;
        maxd = du + 1;
        queue.push_back(v);
      }
    }
  }
  return maxd;
}

}  // namespace

std::vector<std::int32_t> bfs_distances(const Graph& g, Vertex src) {
  std::vector<std::int32_t> dist;
  std::vector<Vertex> queue;
  queue.reserve(g.num_vertices());
  bfs_into(g, src, dist, queue);
  return dist;
}

std::vector<std::uint64_t> hop_histogram(const Graph& g, std::span<const Vertex> sources) {
  std::vector<std::uint64_t> hist(1, 0);
  detail::MsBfs bfs;
  for (std::size_t first = 0; first < sources.size(); first += detail::MsBfs::kLanes) {
    const auto batch =
        sources.subspan(first, std::min(detail::MsBfs::kLanes, sources.size() - first));
    bfs.run(g, batch, SIZE_MAX, [&](std::size_t d, Vertex, const detail::MsBfs::Lanes& w) {
      if (hist.size() <= d) hist.resize(d + 1, 0);
      for (std::uint64_t word : w) hist[d] += static_cast<std::uint64_t>(std::popcount(word));
    });
  }
  return hist;
}

DistanceStats distance_stats(const Graph& g) {
  const Vertex n = g.num_vertices();
  DistanceStats out;
  if (n == 0) return out;

  std::vector<Vertex> all(n);
  std::iota(all.begin(), all.end(), Vertex{0});
  out.histogram = hop_histogram(g, all);
  // Integer sums, converted once: bitwise the same mean at any thread count.
  std::uint64_t reached = 0;
  std::uint64_t total = 0;
  for (std::size_t d = 1; d < out.histogram.size(); ++d) {
    reached += out.histogram[d];
    total += d * out.histogram[d];
  }
  out.diameter = static_cast<std::int32_t>(out.histogram.size() - 1);
  out.mean_distance = reached ? static_cast<double>(total) / static_cast<double>(reached) : 0.0;
  out.connected = reached == std::uint64_t{n} * (n - 1);
  return out;
}

std::uint32_t girth(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::int32_t> dist(n);
  std::vector<Vertex> parent(n);
  std::vector<Vertex> queue;
  queue.reserve(n);

  for (Vertex s = 0; s < n && best > 3; ++s) {  // 3 cannot improve
    // BFS from s; a non-tree edge (u,v) closes a cycle through s of
    // length dist[u] + dist[v] + 1 (>= girth; the minimum over all roots
    // is exact).
    std::fill(dist.begin(), dist.end(), kUnreachable);
    queue.clear();
    queue.push_back(s);
    dist[s] = 0;
    parent[s] = s;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      Vertex u = queue[head];
      // Depth pruning: any cycle found deeper cannot beat `best`.
      if (2 * static_cast<std::uint32_t>(dist[u]) + 1 >= best) break;
      for (Vertex v : g.neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = dist[u] + 1;
          parent[v] = u;
          queue.push_back(v);
        } else if (v != parent[u]) {
          std::uint32_t len = static_cast<std::uint32_t>(dist[u] + dist[v]) + 1;
          best = std::min(best, len);
        }
      }
    }
  }
  return best == std::numeric_limits<std::uint32_t>::max() ? 0 : best;
}

std::uint32_t num_components(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<std::int32_t> dist(n, kUnreachable);
  std::vector<Vertex> queue;
  queue.reserve(n);
  std::uint32_t comps = 0;
  for (Vertex s = 0; s < n; ++s) {
    if (dist[s] != kUnreachable) continue;
    ++comps;
    queue.clear();
    queue.push_back(s);
    dist[s] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head)
      for (Vertex v : g.neighbors(queue[head]))
        if (dist[v] == kUnreachable) {
          dist[v] = 0;
          queue.push_back(v);
        }
  }
  return comps;
}

bool is_connected(const Graph& g) {
  return g.num_vertices() == 0 || num_components(g) == 1;
}

bool is_bipartite(const Graph& g, std::vector<std::uint8_t>* side) {
  const Vertex n = g.num_vertices();
  std::vector<std::int8_t> color(n, -1);
  std::vector<Vertex> queue;
  queue.reserve(n);
  for (Vertex s = 0; s < n; ++s) {
    if (color[s] != -1) continue;
    color[s] = 0;
    queue.clear();
    queue.push_back(s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      Vertex u = queue[head];
      for (Vertex v : g.neighbors(u)) {
        if (color[v] == -1) {
          color[v] = static_cast<std::int8_t>(1 - color[u]);
          queue.push_back(v);
        } else if (color[v] == color[u]) {
          return false;
        }
      }
    }
  }
  if (side) {
    side->resize(n);
    for (Vertex v = 0; v < n; ++v) (*side)[v] = static_cast<std::uint8_t>(color[v]);
  }
  return true;
}

std::int32_t eccentricity(const Graph& g, Vertex v) {
  std::vector<std::int32_t> dist;
  std::vector<Vertex> queue;
  queue.reserve(g.num_vertices());
  return bfs_into(g, v, dist, queue);
}

}  // namespace sfly
