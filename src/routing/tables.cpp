#include "routing/tables.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace sfly::routing {

namespace {
std::atomic<std::uint64_t> g_table_builds{0};
}  // namespace

std::uint64_t Tables::builds() { return g_table_builds.load(); }

Tables Tables::build(const Graph& g, TaskPool* pool) {
  g_table_builds.fetch_add(1, std::memory_order_relaxed);
  Tables t;
  const Vertex n = g.num_vertices();
  t.n_ = n;
  std::vector<std::uint8_t> dist_mat(static_cast<std::size_t>(n) * n, 0xFF);

  // A chunk that fails throws; parallel_for rethrows the lowest one's.
  // The CSR spans and the queue are held by value: a byte store may alias
  // anything reached through a reference, so the edge loop would reload it.
  const auto offsets = g.raw_offsets();
  const auto adj = g.raw_adjacency();
  const auto diameters = TaskPool::parallel_for(
      pool, n, 8, [&, offsets, adj](std::size_t lo, std::size_t hi) {
        std::uint8_t diameter = 0;
        std::vector<Vertex> queue_buf(n);
        Vertex* const queue = queue_buf.data();
        for (std::size_t s = lo; s < hi; ++s) {
          std::uint8_t* dist = dist_mat.data() + s * n;
          std::size_t tail = 0;
          queue[tail++] = static_cast<Vertex>(s);
          dist[s] = 0;
          for (std::size_t head = 0; head < tail; ++head) {
            const Vertex u = queue[head];
            const std::uint8_t du = dist[u];
            if (du >= 0xFE)
              throw std::runtime_error("routing::Tables: distance overflow");
            for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
              const Vertex v = adj[e];
              if (dist[v] == 0xFF) {
                dist[v] = static_cast<std::uint8_t>(du + 1);
                queue[tail++] = v;
              }
            }
          }
          if (tail != n)
            throw std::runtime_error("routing::Tables: graph disconnected");
          // BFS visits by distance, so the last vertex is the farthest.
          diameter = std::max(diameter, dist[queue[n - 1]]);
        }
        return diameter;
      });
  t.diameter_ = diameters.empty() ? 0 : *std::ranges::max_element(diameters);
  t.dist_ = std::move(dist_mat);
  return t;
}

Tables Tables::from_view(Vertex n, std::uint8_t diameter,
                         std::span<const std::uint8_t> dist) {
  if (dist.size() != static_cast<std::size_t>(n) * n)
    throw std::invalid_argument("Tables::from_view: dist size != n*n");
  Tables t;
  t.n_ = n;
  t.diameter_ = diameter;
  t.dist_ = OwnedSpan<std::uint8_t>::view(dist.data(), dist.size());
  return t;
}

void Tables::minimal_next_hops(const Graph& g, Vertex u, Vertex v,
                               std::vector<Vertex>& out) const {
  out.clear();
  const std::uint8_t du = distance(u, v);
  for (Vertex w : g.neighbors(u))
    if (distance(w, v) + 1 == du) out.push_back(w);
}

Vertex Tables::sample_next_hop(const Graph& g, Vertex u, Vertex v,
                               std::uint64_t entropy) const {
  const std::uint8_t du = distance(u, v);
  // Two passes: count minimal hops, then pick the (entropy % count)-th.
  std::uint32_t count = 0;
  for (Vertex w : g.neighbors(u))
    if (distance(w, v) + 1 == du) ++count;
  if (count == 0) throw std::logic_error("sample_next_hop: u == v or no path");
  std::uint32_t pick = static_cast<std::uint32_t>(entropy % count);
  for (Vertex w : g.neighbors(u)) {
    if (distance(w, v) + 1 == du) {
      if (pick == 0) return w;
      --pick;
    }
  }
  throw std::logic_error("sample_next_hop: unreachable");
}

}  // namespace sfly::routing
