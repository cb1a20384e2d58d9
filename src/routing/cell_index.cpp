#include "routing/cell_index.hpp"

#include <stdexcept>

#include "partition/recursive_bisection.hpp"
#include "util/parallel.hpp"

namespace sfly::routing {

namespace {
std::atomic<std::uint64_t> g_cell_builds{0};
}  // namespace

std::uint64_t CellIndex::builds() { return g_cell_builds.load(); }

CellIndex CellIndex::build(const Graph& g, const Options& opts,
                           TaskPool* pool) {
  if (opts.max_cell_size == 0 || opts.max_cell_size > 255)
    throw std::invalid_argument(
        "CellIndex::build: max_cell_size must be in [1, 255]");
  g_cell_builds.fetch_add(1, std::memory_order_relaxed);

  CellIndex x;
  const Vertex n = g.num_vertices();
  x.n_ = n;
  if (n == 0) {
    x.cell_of_ = std::vector<std::uint32_t>{};
    x.cell_offsets_ = std::vector<std::uint32_t>{0};
    x.members_ = std::vector<std::uint32_t>{};
    x.local_index_ = std::vector<std::uint16_t>{};
    x.intra_offsets_ = std::vector<std::uint32_t>{0};
    x.intra_ = std::vector<std::uint8_t>{};
    x.boundary_offsets_ = std::vector<std::uint32_t>{0};
    x.boundary_local_ = std::vector<std::uint16_t>{};
    x.overlay_id_ = std::vector<std::uint32_t>{};
    x.overlay_vertex_ = std::vector<std::uint32_t>{};
    x.ov_offsets_ = std::vector<std::uint32_t>{0};
    x.ov_adj_ = std::vector<std::uint32_t>{};
    x.ov_w_ = std::vector<std::uint8_t>{};
    return x;
  }

  // Connectivity check + eccentricity of vertex 0 in one BFS; 2 * ecc
  // bounds the diameter (used only to budget route walks, so the cap at
  // 254 is harmless).
  {
    std::vector<std::uint16_t> dist(n, 0xFFFF);
    std::vector<Vertex> queue;
    queue.reserve(n);
    dist[0] = 0;
    queue.push_back(0);
    std::uint16_t ecc = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex u = queue[head];
      for (Vertex w : g.neighbors(u)) {
        if (dist[w] == 0xFFFF) {
          dist[w] = static_cast<std::uint16_t>(dist[u] + 1);
          if (dist[w] > ecc) ecc = dist[w];
          queue.push_back(w);
        }
      }
    }
    if (queue.size() != n)
      throw std::runtime_error("routing::CellIndex: graph disconnected");
    x.diameter_bound_ =
        static_cast<std::uint8_t>(std::min<std::uint32_t>(2u * ecc, 254u));
  }

  partition::CellPartitionOptions popts;
  popts.max_cell_size = opts.max_cell_size;
  popts.seed = opts.seed;
  popts.restarts = opts.restarts;
  popts.fm_passes = opts.fm_passes;
  partition::CellPartition part = partition::recursive_bisection(g, popts);
  const std::uint32_t C = part.num_cells;
  x.num_cells_ = C;

  std::vector<std::uint16_t> local_index(n, 0);
  for (std::uint32_t c = 0; c < C; ++c)
    for (std::uint32_t i = part.cell_offsets[c]; i < part.cell_offsets[c + 1];
         ++i)
      local_index[part.members[i]] =
          static_cast<std::uint16_t>(i - part.cell_offsets[c]);

  std::vector<std::uint32_t> intra_offsets(C + 1, 0);
  {
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < C; ++c) {
      const std::uint64_t s = part.cell_size(c);
      total += s * s;
      if (total > 0xFFFFFFFFull)
        throw std::runtime_error("routing::CellIndex: intra matrix overflow");
      intra_offsets[c + 1] = static_cast<std::uint32_t>(total);
    }
  }

  // Cell-restricted all-pairs per cell: BFS from each member, confined to
  // same-cell neighbors.  0xFF = unreachable within the cell (the common
  // case on expanders, whose cells are near-edgeless inside).
  std::vector<std::uint8_t> intra(intra_offsets[C], 0xFF);
  TaskPool::parallel_for(pool, C, 16, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint16_t> queue;
    for (auto c = static_cast<std::uint32_t>(lo); c < hi; ++c) {
      const std::uint32_t off = part.cell_offsets[c];
      const std::uint32_t s = part.cell_size(c);
      std::uint8_t* mat = intra.data() + intra_offsets[c];
      queue.reserve(s);
      for (std::uint32_t i = 0; i < s; ++i) {
        std::uint8_t* row = mat + static_cast<std::size_t>(i) * s;
        queue.clear();
        queue.push_back(static_cast<std::uint16_t>(i));
        row[i] = 0;
        for (std::size_t head = 0; head < queue.size(); ++head) {
          const std::uint32_t lu = queue[head];
          const Vertex u = part.members[off + lu];
          for (Vertex w : g.neighbors(u)) {
            if (part.cell_of[w] != c) continue;
            const std::uint16_t lw = local_index[w];
            if (row[lw] == 0xFF) {
              row[lw] = static_cast<std::uint8_t>(row[lu] + 1);
              queue.push_back(lw);
            }
          }
        }
      }
    }
  });

  // Boundary vertices (members with an out-of-cell edge), per cell in
  // ascending local order; an overlay node id is simply the entry's index
  // in boundary_local.
  std::vector<std::uint32_t> boundary_offsets(C + 1, 0);
  std::vector<std::uint16_t> boundary_local;
  std::vector<std::uint32_t> overlay_id(n, kNoOverlay);
  std::vector<std::uint32_t> overlay_vertex;
  for (std::uint32_t c = 0; c < C; ++c) {
    const std::uint32_t off = part.cell_offsets[c];
    const std::uint32_t s = part.cell_size(c);
    for (std::uint32_t i = 0; i < s; ++i) {
      const Vertex u = part.members[off + i];
      bool boundary = false;
      for (Vertex w : g.neighbors(u)) {
        if (part.cell_of[w] != c) {
          boundary = true;
          break;
        }
      }
      if (boundary) {
        overlay_id[u] = static_cast<std::uint32_t>(boundary_local.size());
        boundary_local.push_back(static_cast<std::uint16_t>(i));
        overlay_vertex.push_back(u);
      }
    }
    boundary_offsets[c + 1] = static_cast<std::uint32_t>(boundary_local.size());
  }
  const std::uint32_t B = static_cast<std::uint32_t>(boundary_local.size());
  x.num_boundary_ = B;

  // Overlay adjacency: same-cell boundary pairs with a finite
  // cell-restricted distance (weight = that distance) plus the original
  // cut edges (weight 1).  Cut neighbors are boundary by symmetry.  The
  // count and fill passes share one walk: edge(target, weight) for each
  // overlay edge of boundary entry bi of cell c, in storage order.
  auto overlay_edges = [&](std::uint32_t c, std::uint32_t bi, auto&& edge) {
    const std::uint16_t bl = boundary_local[bi];
    const std::uint8_t* row = intra.data() + intra_offsets[c] +
                              static_cast<std::size_t>(bl) * part.cell_size(c);
    for (std::uint32_t bj = boundary_offsets[c]; bj < boundary_offsets[c + 1];
         ++bj)
      if (bj != bi && row[boundary_local[bj]] != 0xFF)
        edge(bj, row[boundary_local[bj]]);
    for (Vertex w : g.neighbors(part.members[part.cell_offsets[c] + bl]))
      if (part.cell_of[w] != c) edge(overlay_id[w], std::uint8_t{1});
  };
  std::vector<std::uint32_t> ov_offsets(static_cast<std::size_t>(B) + 1, 0);
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < C; ++c)
    for (std::uint32_t bi = boundary_offsets[c]; bi < boundary_offsets[c + 1];
         ++bi) {
      overlay_edges(c, bi, [&](std::uint32_t, std::uint8_t) { ++total; });
      if (total > 0xFFFFFFFFull)
        throw std::runtime_error("routing::CellIndex: overlay overflow");
      ov_offsets[bi + 1] = static_cast<std::uint32_t>(total);
    }
  std::vector<std::uint32_t> ov_adj(ov_offsets[B]);
  std::vector<std::uint8_t> ov_w(ov_offsets[B]);
  TaskPool::parallel_for(pool, C, 64, [&](std::size_t lo, std::size_t hi) {
    for (auto c = static_cast<std::uint32_t>(lo); c < hi; ++c)
      for (std::uint32_t bi = boundary_offsets[c];
           bi < boundary_offsets[c + 1]; ++bi) {
        std::uint32_t e = ov_offsets[bi];
        overlay_edges(c, bi, [&](std::uint32_t to, std::uint8_t w) {
          ov_adj[e] = to;
          ov_w[e] = w;
          ++e;
        });
      }
  });

  x.cell_of_ = std::move(part.cell_of);
  x.cell_offsets_ = std::move(part.cell_offsets);
  x.members_ = std::move(part.members);
  x.local_index_ = std::move(local_index);
  x.intra_offsets_ = std::move(intra_offsets);
  x.intra_ = std::move(intra);
  x.boundary_offsets_ = std::move(boundary_offsets);
  x.boundary_local_ = std::move(boundary_local);
  x.overlay_id_ = std::move(overlay_id);
  x.overlay_vertex_ = std::move(overlay_vertex);
  x.ov_offsets_ = std::move(ov_offsets);
  x.ov_adj_ = std::move(ov_adj);
  x.ov_w_ = std::move(ov_w);
  return x;
}

CellIndex CellIndex::from_view(const Views& v) {
  const auto nsz = static_cast<std::size_t>(v.n);
  const auto csz = static_cast<std::size_t>(v.num_cells) + 1;
  const auto bsz = static_cast<std::size_t>(v.num_boundary);
  if (v.cell_of.size() != nsz || v.members.size() != nsz ||
      v.local_index.size() != nsz || v.overlay_id.size() != nsz ||
      v.cell_offsets.size() != csz || v.intra_offsets.size() != csz ||
      v.boundary_offsets.size() != csz || v.boundary_local.size() != bsz ||
      v.overlay_vertex.size() != bsz || v.ov_offsets.size() != bsz + 1 ||
      (v.num_cells > 0 && v.intra.size() != v.intra_offsets[v.num_cells]) ||
      (bsz > 0 && v.ov_adj.size() != v.ov_offsets[bsz]) ||
      v.ov_w.size() != v.ov_adj.size())
    throw std::invalid_argument("CellIndex::from_view: inconsistent sizes");
  CellIndex x;
  x.n_ = v.n;
  x.num_cells_ = v.num_cells;
  x.num_boundary_ = v.num_boundary;
  x.diameter_bound_ = v.diameter_bound;
  using U32 = OwnedSpan<std::uint32_t>;
  using U16 = OwnedSpan<std::uint16_t>;
  using U8 = OwnedSpan<std::uint8_t>;
  x.cell_of_ = U32::view(v.cell_of.data(), v.cell_of.size());
  x.cell_offsets_ = U32::view(v.cell_offsets.data(), v.cell_offsets.size());
  x.members_ = U32::view(v.members.data(), v.members.size());
  x.local_index_ = U16::view(v.local_index.data(), v.local_index.size());
  x.intra_offsets_ = U32::view(v.intra_offsets.data(), v.intra_offsets.size());
  x.intra_ = U8::view(v.intra.data(), v.intra.size());
  x.boundary_offsets_ =
      U32::view(v.boundary_offsets.data(), v.boundary_offsets.size());
  x.boundary_local_ =
      U16::view(v.boundary_local.data(), v.boundary_local.size());
  x.overlay_id_ = U32::view(v.overlay_id.data(), v.overlay_id.size());
  x.overlay_vertex_ =
      U32::view(v.overlay_vertex.data(), v.overlay_vertex.size());
  x.ov_offsets_ = U32::view(v.ov_offsets.data(), v.ov_offsets.size());
  x.ov_adj_ = U32::view(v.ov_adj.data(), v.ov_adj.size());
  x.ov_w_ = U8::view(v.ov_w.data(), v.ov_w.size());
  return x;
}

std::size_t CellIndex::memory_bytes() const {
  return cell_of_.size() * 4 + cell_offsets_.size() * 4 + members_.size() * 4 +
         local_index_.size() * 2 + intra_offsets_.size() * 4 + intra_.size() +
         boundary_offsets_.size() * 4 + boundary_local_.size() * 2 +
         overlay_id_.size() * 4 + overlay_vertex_.size() * 4 +
         ov_offsets_.size() * 4 + ov_adj_.size() * 4 + ov_w_.size();
}

CellIndex::Views CellIndex::views() const {
  Views v;
  v.n = n_;
  v.num_cells = num_cells_;
  v.num_boundary = num_boundary_;
  v.diameter_bound = diameter_bound_;
  v.cell_of = {cell_of_.data(), cell_of_.size()};
  v.cell_offsets = {cell_offsets_.data(), cell_offsets_.size()};
  v.members = {members_.data(), members_.size()};
  v.local_index = {local_index_.data(), local_index_.size()};
  v.intra_offsets = {intra_offsets_.data(), intra_offsets_.size()};
  v.intra = {intra_.data(), intra_.size()};
  v.boundary_offsets = {boundary_offsets_.data(), boundary_offsets_.size()};
  v.boundary_local = {boundary_local_.data(), boundary_local_.size()};
  v.overlay_id = {overlay_id_.data(), overlay_id_.size()};
  v.overlay_vertex = {overlay_vertex_.data(), overlay_vertex_.size()};
  v.ov_offsets = {ov_offsets_.data(), ov_offsets_.size()};
  v.ov_adj = {ov_adj_.data(), ov_adj_.size()};
  v.ov_w = {ov_w_.data(), ov_w_.size()};
  return v;
}

CellQuery::CellQuery(const CellIndex* index, const Graph* graph)
    : index_(index),
      graph_(graph),
      dst_(index->num_vertices()),
      label_(index->num_boundary_),
      buckets_(256) {}

void CellQuery::prepare(Vertex dst) {
  dst_ = dst;
  const CellIndex& x = *index_;
  label_.assign(x.num_boundary_, 0xFF);
  for (auto& b : buckets_) b.clear();

  // Seed: the destination cell's boundary vertices at their finite
  // cell-restricted distance to dst.
  const std::uint32_t cd = x.cell_of_[dst];
  const std::uint32_t s = x.cell_offsets_[cd + 1] - x.cell_offsets_[cd];
  const std::uint16_t ld = x.local_index_[dst];
  const std::uint8_t* mat = x.intra_.data() + x.intra_offsets_[cd];
  for (std::uint32_t bi = x.boundary_offsets_[cd];
       bi < x.boundary_offsets_[cd + 1]; ++bi) {
    const std::uint8_t d0 =
        mat[static_cast<std::size_t>(x.boundary_local_[bi]) * s + ld];
    if (d0 == 0xFF) continue;
    if (d0 < label_[bi]) {
      label_[bi] = d0;
      buckets_[d0].push_back(bi);
    }
  }

  // Bucket-queue Dijkstra over <= 254-hop labels.  Candidates past 254
  // are dropped, not finalized — a vertex whose true distance fits still
  // gets it from a later (shorter) relaxation; one that doesn't stays at
  // the 0xFF sentinel and trips the overflow check at query time.
  for (std::uint32_t d = 0; d < 255; ++d) {
    auto& bucket = buckets_[d];
    for (std::size_t head = 0; head < bucket.size(); ++head) {
      const std::uint32_t u = bucket[head];
      if (label_[u] != d) continue;  // stale entry
      const std::uint32_t end = x.ov_offsets_[u + 1];
      for (std::uint32_t e = x.ov_offsets_[u]; e < end; ++e) {
        const std::uint32_t v = x.ov_adj_[e];
        const std::uint32_t nd = d + x.ov_w_[e];
        if (nd > 254 || nd >= label_[v]) continue;
        label_[v] = static_cast<std::uint8_t>(nd);
        buckets_[nd].push_back(v);
      }
    }
  }
}

std::uint8_t CellQuery::distance(Vertex u) const {
  if (u == dst_) return 0;
  const CellIndex& x = *index_;
  const std::uint32_t cu = x.cell_of_[u];
  const std::uint32_t s = x.cell_offsets_[cu + 1] - x.cell_offsets_[cu];
  const std::uint8_t* row = x.intra_.data() + x.intra_offsets_[cu] +
                            static_cast<std::size_t>(x.local_index_[u]) * s;
  std::uint32_t best = 0xFF;
  if (cu == x.cell_of_[dst_]) best = row[x.local_index_[dst_]];
  for (std::uint32_t bi = x.boundary_offsets_[cu];
       bi < x.boundary_offsets_[cu + 1]; ++bi) {
    const std::uint8_t ia = row[x.boundary_local_[bi]];
    const std::uint8_t lb = label_[bi];
    if (ia == 0xFF || lb == 0xFF) continue;
    const std::uint32_t cand =
        static_cast<std::uint32_t>(ia) + static_cast<std::uint32_t>(lb);
    if (cand < best) best = cand;
  }
  if (best >= 0xFF)
    throw std::runtime_error("routing::CellIndex: distance overflow");
  return static_cast<std::uint8_t>(best);
}

void CellQuery::minimal_next_hops(Vertex u, std::vector<Vertex>& out) const {
  out.clear();
  const std::uint8_t du = distance(u);
  for (Vertex w : graph_->neighbors(u))
    if (distance(w) + 1 == du) out.push_back(w);
}

Hop CellQuery::pick(Vertex u, std::uint64_t entropy) const {
  return scan_pick(graph_->neighbors(u), distance(u),
                   [this](Vertex w) { return distance(w); }, entropy);
}

Vertex CellQuery::num_vertices() const { return index_->num_vertices(); }

}  // namespace sfly::routing
