#include "routing/tables.hpp"
// Tables::build fills the distance matrix with the bit-parallel
// multi-source BFS sweep of graph/msbfs.hpp (the one hop_histogram runs),
// one pool chunk per batch of 256 sources.

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "graph/msbfs.hpp"
#include "util/parallel.hpp"

namespace sfly::routing {

namespace {
std::atomic<std::uint64_t> g_table_builds{0};
}  // namespace

std::uint64_t Tables::builds() { return g_table_builds.load(); }

Tables Tables::build(const Graph& g, TaskPool* pool) {
  g_table_builds.fetch_add(1, std::memory_order_relaxed);
  using detail::MsBfs;
  Tables t;
  const Vertex n = g.num_vertices();
  t.n_ = n;
  std::vector<std::uint8_t> dist_mat(static_cast<std::size_t>(n) * n, 0);
  std::vector<Vertex> sources(n);
  std::iota(sources.begin(), sources.end(), Vertex{0});

  // One chunk per batch of MsBfs::kLanes consecutive sources [first, last).
  // The graph is undirected, so dist(first + i, v) = dist(v, first + i):
  // a vertex v reached by lane i at level d gets byte d in row v's window
  // [first, last).  A vertex 254 hops out overflows the byte range, so the
  // sweep stops there.  A chunk that fails throws for its lowest failing
  // source; parallel_for rethrows the lowest chunk's.
  constexpr std::size_t kOverflow = 0xFE;
  std::uint8_t* const dist = dist_mat.data();
  const auto diameters = TaskPool::parallel_for(
      pool, n, MsBfs::kLanes, [&, dist](std::size_t first, std::size_t last) {
        MsBfs bfs;
        MsBfs::Lanes overflow{};
        const std::size_t depth = bfs.run(
            g, std::span<const Vertex>(sources).subspan(first, last - first), kOverflow,
            [&, dist](std::size_t d, Vertex v, const MsBfs::Lanes& w) {
              if (d == kOverflow) {
                for (std::size_t k = 0; k < MsBfs::kWords; ++k) overflow[k] |= w[k];
                return;
              }
              std::uint8_t* const row = dist + static_cast<std::size_t>(v) * n + first;
              for (std::size_t k = 0; k < MsBfs::kWords; ++k)
                for (std::uint64_t bits = w[k]; bits != 0; bits &= bits - 1)
                  row[64 * k + std::countr_zero(bits)] = static_cast<std::uint8_t>(d);
            });
        const MsBfs::Lanes reached = bfs.reached_all();
        for (std::size_t k = 0; k < MsBfs::kWords; ++k) {
          const std::uint64_t failing = overflow[k] | ~reached[k];
          if (failing == 0) continue;
          if (overflow[k] & failing & -failing)
            throw std::runtime_error("routing::Tables: distance overflow");
          throw std::runtime_error("routing::Tables: graph disconnected");
        }
        return static_cast<std::uint8_t>(depth);
      });
  t.diameter_ = diameters.empty() ? 0 : *std::ranges::max_element(diameters);
  t.dist_ = std::move(dist_mat);
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
