#pragma once
// All-pairs routing tables.
//
// Vertex-transitive low-diameter topologies keep the full hop-distance
// matrix small (n^2 bytes); minimal next-hop *sets* are recovered on the
// fly from the matrix (a neighbor w of u is a minimal next hop toward v
// iff dist(w,v) == dist(u,v) - 1), which preserves the full path diversity
// that SpectralFly's routing exploits without storing path sets.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/owned_span.hpp"
#include "util/parallel.hpp"

namespace sfly::routing {

class Tables {
 public:
  /// BFS from every vertex: the bit-parallel sweep of graph/msbfs.hpp,
  /// parallel over batches of 256 sources on `pool`.  Throws for the
  /// lowest failing source: "distance overflow" if a vertex lies 254 or
  /// more hops from it, else "graph disconnected".
  static Tables build(const Graph& g, TaskPool* pool = nullptr);

  /// Zero-copy view over an externally owned n*n distance matrix (e.g. an
  /// mmap'd snapshot).  The memory must outlive the Tables and every copy.
  static Tables from_view(Vertex n, std::uint8_t diameter,
                          std::span<const std::uint8_t> dist);

  /// Process-wide count of build() calls — warm-restart assertions check
  /// that snapshot-served queries never trigger an all-pairs rebuild.
  static std::uint64_t builds();

  [[nodiscard]] std::uint8_t distance(Vertex u, Vertex v) const {
    return dist_[static_cast<std::size_t>(u) * n_ + v];
  }
  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::uint8_t diameter() const { return diameter_; }

  /// Append all minimal next hops from u toward v (u != v) to `out`.
  void minimal_next_hops(const Graph& g, Vertex u, Vertex v,
                         std::vector<Vertex>& out) const;

  /// One uniformly random minimal next hop; `entropy` supplies the draw
  /// (callers derive it deterministically from packet identity).
  [[nodiscard]] Vertex sample_next_hop(const Graph& g, Vertex u, Vertex v,
                                       std::uint64_t entropy) const;

  /// Raw n*n distance matrix (snapshot serialization; read-only).
  [[nodiscard]] std::span<const std::uint8_t> raw_distances() const {
    return {dist_.data(), dist_.size()};
  }
  [[nodiscard]] std::size_t memory_bytes() const { return dist_.size(); }
  [[nodiscard]] bool is_view() const { return dist_.is_view(); }

 private:
  Vertex n_ = 0;
  std::uint8_t diameter_ = 0;
  OwnedSpan<std::uint8_t> dist_;
};

}  // namespace sfly::routing
