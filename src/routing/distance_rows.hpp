#pragma once
// Distance rows: the minimal-hop oracle sflyd routes over at every scale.
//
// Routing toward one destination reads d(., dst) and nothing else: a
// neighbour w of u is a minimal next hop iff d(w, dst) + 1 == d(u, dst).
// That is one n-byte row.  The graph is undirected, so row dst of the
// all-pairs Tables matrix is that row; where no Tables exist (above
// engine::kCellExactThreshold, or over a failed-link overlay) prepare()
// fills an owned row by one BFS from dst.  Both give the same bytes, and
// pick() is Tables::sample_next_hop's scan, so a route does not depend on
// where its rows came from (DESIGN.md §9).

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"

namespace sfly::routing {

/// The (entropy % count)-th minimal next hop from a router with neighbours
/// `nb` (adjacency order) and distance `du` to the destination, where
/// `dist(w)` is d(w, dst); the slot is w's position in `nb`.  Two passes:
/// count the minimal hops, then pick.  Throws when there is none (u == dst
/// or no path).  Every oracle's pick runs this scan or agrees with it bit
/// for bit (NextHopIndex::pick).
template <class Dist>
[[nodiscard]] Hop scan_pick(std::span<const Vertex> nb, std::uint8_t du,
                            Dist&& dist, std::uint64_t entropy) {
  std::uint32_t count = 0;
  for (Vertex w : nb)
    if (dist(w) + 1 == du) ++count;
  if (count == 0) throw std::logic_error("sample_next_hop: u == v or no path");
  std::uint32_t k = static_cast<std::uint32_t>(entropy % count);
  for (std::size_t s = 0; s < nb.size(); ++s) {
    if (dist(nb[s]) + 1 == du) {
      if (k == 0) return {nb[s], static_cast<std::uint16_t>(s)};
      --k;
    }
  }
  throw std::logic_error("sample_next_hop: unreachable");
}

/// Per-destination distance row over one graph; a MinimalHopOracle.  Not
/// thread-safe: make one per thread (or per query) and prepare() it per
/// destination.
class DistanceRows {
 public:
  /// Rows over `g`.  With `tables` (built over the same graph) prepare()
  /// views row dst of its matrix; without, it runs one BFS from dst.  Both
  /// must outlive the oracle.
  explicit DistanceRows(const Graph& g, const Tables* tables = nullptr);

  /// Make d(., dst) current.  The BFS throws "distance overflow" if a
  /// vertex lies 254 or more hops from dst, as Tables::build does; a
  /// vertex dst cannot reach reads 0xFF, which no pick ever selects.
  void prepare(Vertex dst);

  /// Destination of the last prepare() (num_vertices() when unprepared).
  [[nodiscard]] Vertex dst() const { return dst_; }

  /// d(u, dst).
  [[nodiscard]] std::uint8_t distance(Vertex u) const { return row_[u]; }

  /// The (entropy % count)-th minimal next hop from u toward dst with its
  /// adjacency slot (scan_pick).  Requires u != dst.
  [[nodiscard]] Hop pick(Vertex u, std::uint64_t entropy) const {
    return scan_pick(graph_->neighbors(u), row_[u],
                     [row = row_](Vertex w) { return row[w]; }, entropy);
  }

  /// MinimalHopOracle interface: the queries above toward target v,
  /// re-preparing only when v differs from dst().
  [[nodiscard]] Vertex num_vertices() const { return graph_->num_vertices(); }
  [[nodiscard]] std::uint8_t distance(Vertex u, Vertex v) {
    if (dst_ != v) prepare(v);
    return distance(u);
  }
  [[nodiscard]] Hop pick(Vertex u, Vertex v, std::uint64_t entropy) {
    if (dst_ != v) prepare(v);
    return pick(u, entropy);
  }

 private:
  const Graph* graph_;
  const Tables* tables_;
  Vertex dst_;
  const std::uint8_t* row_ = nullptr;
  std::vector<std::uint8_t> own_;  // the BFS row (no tables)
  std::vector<Vertex> queue_;      // BFS scratch
};

}  // namespace sfly::routing
