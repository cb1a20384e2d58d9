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
#include "util/parallel.hpp"

namespace sfly::routing {

class Tables {
 public:
  /// BFS from every vertex: the bit-parallel sweep of graph/msbfs.hpp,
  /// parallel over batches of 256 sources on `pool`.  Throws for the
  /// lowest failing source: "distance overflow" if a vertex lies 254 or
  /// more hops from it, else "graph disconnected".
  static Tables build(const Graph& g, TaskPool* pool = nullptr);

  /// Process-wide count of build() calls (sflyd's stats: one per exact
  /// topology, built at startup, warm or cold).
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

  /// Raw n*n distance matrix (row-major; read-only).
  [[nodiscard]] std::span<const std::uint8_t> raw_distances() const {
    return {dist_.data(), dist_.size()};
  }
  [[nodiscard]] std::size_t memory_bytes() const { return dist_.size(); }

 private:
  Vertex n_ = 0;
  std::uint8_t diameter_ = 0;
  std::vector<std::uint8_t> dist_;
};

}  // namespace sfly::routing
