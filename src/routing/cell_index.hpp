#pragma once
// Hierarchical cell-based routing index — the sub-quadratic replacement
// for the all-pairs Tables/NextHopIndex pair past a few thousand routers
// (ROADMAP "100k-router scale"; OSRM's partition/customize split is the
// blueprint).
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
// vertex in O(cell size).  Minimal next-hop sets are computed with the
// same neighbor scan and the same (entropy % count) pick as
// Tables::sample_next_hop, and pick() reports the scan position as the
// port slot, so at any scale where both exist the picked (vertex, slot)
// agrees bit for bit with NextHopIndex::pick (tests/test_cell_index.cpp
// pins this).  That makes CellQuery a routing::MinimalHopOracle: the
// shared source_decision / next_hop in policy.hpp route over it.
//
// Memory is O(V * cell + cut) instead of O(V^2): ~40 MB where the exact
// tables would need ~2.7 GB of distances alone at 52k routers.
//
// Below `exact_threshold` vertices a CellIndex simply wraps the shared
// all-pairs Tables (wrap_exact) and delegates — small topologies keep the
// exact artifact and its pinned bytes, large ones switch representation
// behind the same engine::Artifacts accessor.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
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
  /// Must be called before the per-vertex queries; O(overlay) in cell
  /// mode, O(1) when the index wraps exact tables.
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

  /// The raw array set (snapshot serialization and from_view): every span
  /// is a zero-copy window into the index (or, for from_view, into
  /// externally owned memory such as an mmap'd snapshot).
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

  /// Exact mode: share an already-built all-pairs table and delegate every
  /// query to it bitwise.  No arrays are built (memory_bytes() is 0).
  static CellIndex wrap_exact(std::shared_ptr<const Tables> tables);

  /// Zero-copy view over externally owned arrays (mmap'd snapshot).  The
  /// backing memory must outlive the index and every copy of it.
  static CellIndex from_view(const Views& v);

  /// Process-wide count of build() calls — warm-restart assertions check
  /// that snapshot-served queries never trigger a cell rebuild.
  static std::uint64_t builds();

  /// True when this index delegates to exact all-pairs tables.
  [[nodiscard]] bool exact() const { return tables_ != nullptr; }
  /// The wrapped tables in exact mode (nullptr in cell mode).
  [[nodiscard]] const std::shared_ptr<const Tables>& exact_tables() const {
    return tables_;
  }

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::uint32_t num_cells() const { return num_cells_; }
  [[nodiscard]] std::uint32_t num_boundary() const { return num_boundary_; }
  /// Upper bound on the graph diameter (2 * ecc(vertex 0), capped at 254);
  /// exact-mode indexes report the wrapped tables' true diameter.
  [[nodiscard]] std::uint8_t diameter_bound() const {
    return tables_ ? tables_->diameter() : diameter_bound_;
  }

  /// A query workspace bound to `g` — which must be the graph this index
  /// was built over (same vertex set and adjacency).
  [[nodiscard]] CellQuery make_query(const Graph& g) const {
    return CellQuery(this, &g);
  }

  /// Bytes of owned/viewed cell arrays (0 in exact mode — the wrapped
  /// tables are accounted by their own owner).
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] bool is_view() const { return cell_of_.is_view(); }

  /// Raw arrays (snapshot serialization; read-only).
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
  std::shared_ptr<const Tables> tables_;  // exact mode only
};

}  // namespace sfly::routing
