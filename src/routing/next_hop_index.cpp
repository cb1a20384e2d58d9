#include "routing/next_hop_index.hpp"

#include <atomic>
#include <limits>
#include <stdexcept>

namespace sfly::routing {

namespace {
std::atomic<std::uint64_t> g_index_builds{0};

// Scans every (u, v != u) row for sources [lo, hi) of the n*n distance
// matrix `dist`.  Without `fill` it writes each row's next-hop count to
// offsets[row + 1], so the prefix sum lands each row's base at
// offsets[row]; with it, it fills each row from there in adjacency
// (= scan) order.
void scan_rows(const Graph& g, const std::uint8_t* dist, std::size_t lo,
               std::size_t hi, bool fill, std::uint32_t* offsets,
               Vertex* verts, std::uint16_t* slots) {
  const std::size_t n = g.num_vertices();
  for (std::size_t u = lo; u < hi; ++u) {
    const auto nb = g.neighbors(static_cast<Vertex>(u));
    for (std::size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      const std::uint8_t du = dist[u * n + v];
      std::uint32_t at = fill ? offsets[u * n + v] : 0;
      for (std::size_t s = 0; s < nb.size(); ++s) {
        if (dist[nb[s] * n + v] + 1 != du) continue;
        if (fill) {
          verts[at] = nb[s];
          slots[at] = static_cast<std::uint16_t>(s);
        }
        ++at;
      }
      if (!fill) offsets[u * n + v + 1] = at;
    }
  }
}
}  // namespace

std::uint64_t NextHopIndex::builds() { return g_index_builds.load(); }

NextHopIndex NextHopIndex::build(const Graph& g, const Tables& tables,
                                 TaskPool* pool) {
  g_index_builds.fetch_add(1, std::memory_order_relaxed);
  const Vertex n = g.num_vertices();
  if (tables.num_vertices() != n)
    throw std::invalid_argument("NextHopIndex: tables/graph mismatch");

  for (Vertex u = 0; u < n; ++u)
    if (g.degree(u) > std::numeric_limits<std::uint16_t>::max() + 1ull)
      throw std::invalid_argument("NextHopIndex: radix exceeds uint16 slots");

  NextHopIndex idx;
  idx.n_ = n;
  const std::size_t rows = static_cast<std::size_t>(n) * n;
  std::vector<std::uint32_t> offsets(rows + 1, 0);

  // The passes take raw pointers as plain arguments: reached through a
  // closure, they would be reloaded after every store.
  const std::uint8_t* dist = tables.raw_distances().data();
  TaskPool::parallel_for(pool, n, 8, [&](std::size_t lo, std::size_t hi) {
    scan_rows(g, dist, lo, hi, false, offsets.data(), nullptr, nullptr);
  });
  for (std::size_t r = 0; r < rows; ++r) offsets[r + 1] += offsets[r];

  const std::size_t entries = offsets[rows];
  std::vector<Vertex> verts(entries);
  std::vector<std::uint16_t> slots(entries);
  TaskPool::parallel_for(pool, n, 8, [&](std::size_t lo, std::size_t hi) {
    scan_rows(g, dist, lo, hi, true, offsets.data(), verts.data(),
              slots.data());
  });
  idx.offsets_ = std::move(offsets);
  idx.verts_ = std::move(verts);
  idx.slots_ = std::move(slots);
  return idx;
}

NextHopIndex NextHopIndex::from_view(Vertex n,
                                     std::span<const std::uint32_t> offsets,
                                     std::span<const Vertex> verts,
                                     std::span<const std::uint16_t> slots) {
  const std::size_t rows = static_cast<std::size_t>(n) * n;
  if (offsets.size() != rows + 1)
    throw std::invalid_argument("NextHopIndex::from_view: offsets size != n*n+1");
  if (rows > 0 && (verts.size() != offsets[rows] || slots.size() != offsets[rows]))
    throw std::invalid_argument("NextHopIndex::from_view: entry count mismatch");
  NextHopIndex idx;
  idx.n_ = n;
  idx.offsets_ = OwnedSpan<std::uint32_t>::view(offsets.data(), offsets.size());
  idx.verts_ = OwnedSpan<Vertex>::view(verts.data(), verts.size());
  idx.slots_ = OwnedSpan<std::uint16_t>::view(slots.data(), slots.size());
  return idx;
}

}  // namespace sfly::routing
