#pragma once
// Hierarchical cell-based routing index (OSRM's partition/customize split
// is the blueprint).  Nothing in src/, tools/ or the service routes over
// it any more: every route is answered from distance rows
// (routing/distance_rows.hpp, DESIGN.md §9).  It stays only because its
// last caller, perfbench's cell probe (perfbench/src/probes.cpp), times
// CellIndex::build, CellQuery::prepare and a cell-mode walk; ROADMAP item
// 13(b) moves that probe to rows and 13(c) deletes this file.
//
// The topology is cut into leaf cells by recursive bisection
// (partition/recursive_bisection.hpp).  Per cell we store the
// cell-restricted distance matrix between its members (paths confined to
// the cell's induced subgraph; 0xFF where none exists — on expanders,
// cells are near-edgeless and that is the common case).  Every member
// with an out-of-cell edge is a *boundary* vertex; the boundary vertices
// form an overlay graph whose edges are (a) same-cell pairs weighted by
// their finite cell-restricted distance and (b) the original cut edges,
// weight 1.
//
// Exactness, not approximation: any shortest path decomposes into maximal
// single-cell segments joined by cut edges, each segment's endpoints are
// boundary vertices of its cell, and the cell-restricted distance lower-
// bounds nothing — it is *achieved* by that segment — so overlay
// distances between boundary vertices equal true graph distances, and
//
//     d(u,v) = min( intra(u,v) if same cell,
//                   min over boundary b of cell(u):  intra(u,b) + d(b,v) )
//
// is exact for every pair.  A CellQuery materializes d(., dst) on the
// overlay once per destination (bucket-queue Dijkstra over <= 255-hop
// labels) and answers distance / minimal-next-hop / pick queries per
// vertex in O(cell size).  pick() is scan_pick (distance_rows.hpp) over
// those distances, so the picked (vertex, slot) agrees bit for bit with
// Tables::sample_next_hop and NextHopIndex::pick (tests/test_cell_index.cpp
// pins this), and CellQuery is a routing::MinimalHopOracle.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "routing/distance_rows.hpp"
#include "util/owned_span.hpp"

namespace sfly::routing {

class CellIndex;

/// Per-destination query workspace over one CellIndex.  Not thread-safe;
/// make one per thread and prepare() it per destination.  All vertex
/// arguments must belong to the graph the index was built over (passed
/// once at make_query time).
class CellQuery {
 public:
  /// Materialize exact distances-to-`dst` on the boundary overlay.
  /// Must be called before the per-vertex queries; O(overlay).
  void prepare(Vertex dst);

  /// Destination of the last prepare() (num_vertices() when unprepared).
  [[nodiscard]] Vertex dst() const { return dst_; }

  /// Exact d(u, dst).  Throws on distance overflow (> 254 hops).
  [[nodiscard]] std::uint8_t distance(Vertex u) const;

  /// Append all minimal next hops from u toward dst (adjacency order) —
  /// the same set Tables::minimal_next_hops yields.
  void minimal_next_hops(Vertex u, std::vector<Vertex>& out) const;

  /// The (entropy % count)-th minimal next hop toward dst, with its scan
  /// position in u's adjacency list as the slot — bitwise the hop
  /// Tables::sample_next_hop and NextHopIndex::pick return.  Requires
  /// u != dst.
  [[nodiscard]] Hop pick(Vertex u, std::uint64_t entropy) const;
  [[nodiscard]] Vertex sample_next_hop(Vertex u, std::uint64_t entropy) const {
    return pick(u, entropy).vert;
  }

  /// MinimalHopOracle interface: the queries above toward target v,
  /// re-preparing only when v differs from dst().
  [[nodiscard]] Vertex num_vertices() const;
  [[nodiscard]] std::uint8_t distance(Vertex u, Vertex v) {
    if (dst_ != v) prepare(v);
    return distance(u);
  }
  [[nodiscard]] Hop pick(Vertex u, Vertex v, std::uint64_t entropy) {
    if (dst_ != v) prepare(v);
    return pick(u, entropy);
  }

 private:
  friend class CellIndex;
  CellQuery(const CellIndex* index, const Graph* graph);

  const CellIndex* index_;
  const Graph* graph_;
  Vertex dst_;
  std::vector<std::uint8_t> label_;                 // overlay node -> d(., dst)
  std::vector<std::vector<std::uint32_t>> buckets_; // Dijkstra bucket queue
};

class CellIndex {
 public:
  struct Options {
    Vertex max_cell_size = 64;  // leaf cell bound (2..255)
    std::uint64_t seed = 1;     // partition seed
    int restarts = 2;           // per-split bisection restarts
    int fm_passes = 4;          // per-split FM passes
  };

  /// The raw array set (views() and from_view): every span is a zero-copy
  /// window into the index (or, for from_view, into externally owned
  /// memory).
  struct Views {
    Vertex n = 0;
    std::uint32_t num_cells = 0;
    std::uint32_t num_boundary = 0;
    std::uint8_t diameter_bound = 0;
    std::span<const std::uint32_t> cell_of;          // n
    std::span<const std::uint32_t> cell_offsets;     // num_cells + 1
    std::span<const std::uint32_t> members;          // n, ascending per cell
    std::span<const std::uint16_t> local_index;      // n
    std::span<const std::uint32_t> intra_offsets;    // num_cells + 1
    std::span<const std::uint8_t> intra;             // sum of cell_size^2
    std::span<const std::uint32_t> boundary_offsets; // num_cells + 1
    std::span<const std::uint16_t> boundary_local;   // num_boundary
    std::span<const std::uint32_t> overlay_id;       // n (0xFFFFFFFF interior)
    std::span<const std::uint32_t> overlay_vertex;   // num_boundary
    std::span<const std::uint32_t> ov_offsets;       // num_boundary + 1
    std::span<const std::uint32_t> ov_adj;           // overlay edge targets
    std::span<const std::uint8_t> ov_w;              // parallel edge weights
  };

  /// Partition + per-cell matrices + boundary overlay.  Throws if the
  /// graph is disconnected (like Tables::build) or the options are out of
  /// range.  Parallel over cells on `pool`.
  static CellIndex build(const Graph& g, const Options& opts,
                         TaskPool* pool = nullptr);
  static CellIndex build(const Graph& g) { return build(g, Options{}); }

  /// Zero-copy view over externally owned arrays.  The backing memory must
  /// outlive the index and every copy of it.
  static CellIndex from_view(const Views& v);

  /// Process-wide count of build() calls (sflyd's stats report it; no
  /// query builds a cell index, so it stays 0 there).
  static std::uint64_t builds();

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::uint32_t num_cells() const { return num_cells_; }
  [[nodiscard]] std::uint32_t num_boundary() const { return num_boundary_; }
  /// Upper bound on the graph diameter (2 * ecc(vertex 0), capped at 254).
  [[nodiscard]] std::uint8_t diameter_bound() const { return diameter_bound_; }

  /// A query workspace bound to `g` — which must be the graph this index
  /// was built over (same vertex set and adjacency).
  [[nodiscard]] CellQuery make_query(const Graph& g) const {
    return CellQuery(this, &g);
  }

  /// Bytes of owned/viewed cell arrays.
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] bool is_view() const { return cell_of_.is_view(); }

  /// Raw arrays (read-only).
  [[nodiscard]] Views views() const;

 private:
  friend class CellQuery;
  CellIndex() = default;

  static constexpr std::uint32_t kNoOverlay = 0xFFFFFFFFu;

  Vertex n_ = 0;
  std::uint32_t num_cells_ = 0;
  std::uint32_t num_boundary_ = 0;
  std::uint8_t diameter_bound_ = 0;
  OwnedSpan<std::uint32_t> cell_of_;
  OwnedSpan<std::uint32_t> cell_offsets_;
  OwnedSpan<std::uint32_t> members_;
  OwnedSpan<std::uint16_t> local_index_;
  OwnedSpan<std::uint32_t> intra_offsets_;
  OwnedSpan<std::uint8_t> intra_;
  OwnedSpan<std::uint32_t> boundary_offsets_;
  OwnedSpan<std::uint16_t> boundary_local_;
  OwnedSpan<std::uint32_t> overlay_id_;
  OwnedSpan<std::uint32_t> overlay_vertex_;
  OwnedSpan<std::uint32_t> ov_offsets_;
  OwnedSpan<std::uint32_t> ov_adj_;
  OwnedSpan<std::uint8_t> ov_w_;
};

}  // namespace sfly::routing
