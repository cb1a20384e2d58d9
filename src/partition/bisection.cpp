#include "partition/bisection.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "partition/gain_buckets.hpp"
#include "util/rng.hpp"

namespace sfly {
namespace {

using detail::GainBuckets;

// Weighted graph used internally during coarsening.
struct WGraph {
  std::vector<std::uint32_t> offsets;
  std::vector<Vertex> adj;
  std::vector<std::uint32_t> ewgt;   // parallel to adj
  std::vector<std::uint32_t> vwgt;   // per vertex
  [[nodiscard]] Vertex n() const { return static_cast<Vertex>(vwgt.size()); }
  [[nodiscard]] std::uint64_t total_vwgt() const {
    return std::accumulate(vwgt.begin(), vwgt.end(), std::uint64_t{0});
  }
};

WGraph to_wgraph(const Graph& g) {
  WGraph w;
  const Vertex n = g.num_vertices();
  w.vwgt.assign(n, 1);
  w.offsets.assign(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) w.offsets[v + 1] = w.offsets[v] + g.degree(v);
  w.adj.resize(w.offsets.back());
  w.ewgt.assign(w.offsets.back(), 1);
  for (Vertex v = 0; v < n; ++v) {
    auto nb = g.neighbors(v);
    std::copy(nb.begin(), nb.end(), w.adj.begin() + w.offsets[v]);
  }
  return w;
}

// Heavy-edge matching; returns coarse graph and fine->coarse map.
struct CoarseLevel {
  WGraph graph;
  std::vector<Vertex> map;  // fine vertex -> coarse vertex
};

CoarseLevel coarsen(const WGraph& g, Rng& rng) {
  const Vertex n = g.n();
  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng);

  std::vector<Vertex> match(n, static_cast<Vertex>(-1));
  for (Vertex u : order) {
    if (match[u] != static_cast<Vertex>(-1)) continue;
    Vertex best = u;  // allow staying single
    std::uint32_t best_w = 0;
    for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      Vertex v = g.adj[e];
      if (v == u || match[v] != static_cast<Vertex>(-1)) continue;
      if (g.ewgt[e] > best_w) {
        best_w = g.ewgt[e];
        best = v;
      }
    }
    match[u] = best;
    match[best] = u;
  }

  CoarseLevel out;
  out.map.assign(n, 0);
  Vertex nc = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (match[v] >= v) out.map[v] = nc++;  // v is representative (match[v]==v or >v)
  }
  for (Vertex v = 0; v < n; ++v)
    if (match[v] < v) out.map[v] = out.map[match[v]];

  // Aggregate edges into the coarse graph in one flat CSR array.  Coarse ids
  // ascend with their representatives, so walking the representatives in
  // order emits every coarse edge (c, cv) in ascending c; scattering each
  // into cv's segment as (c, w) leaves every segment sorted by neighbour
  // (the graph is symmetric, so cv's incoming pairs are its adjacency).
  // Merging adjacent repeats in place then sums parallel edges.
  WGraph& cg = out.graph;
  cg.vwgt.assign(nc, 0);
  for (Vertex v = 0; v < n; ++v) cg.vwgt[out.map[v]] += g.vwgt[v];
  std::vector<std::uint32_t> fill(nc + 1, 0);
  for (Vertex u = 0; u < n; ++u)
    for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e)
      if (out.map[g.adj[e]] != out.map[u]) ++fill[out.map[u] + 1];
  std::partial_sum(fill.begin(), fill.end(), fill.begin());
  cg.adj.resize(fill[nc]);
  cg.ewgt.resize(fill[nc]);
  for (Vertex r = 0; r < n; ++r) {
    if (match[r] < r) continue;  // not a representative
    const Vertex c = out.map[r];
    for (Vertex u : {r, match[r]}) {
      for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
        const Vertex cv = out.map[g.adj[e]];
        if (cv == c) continue;
        cg.adj[fill[cv]] = c;
        cg.ewgt[fill[cv]++] = g.ewgt[e];
      }
      if (match[r] == r) break;
    }
  }
  // fill[c] now ends segment c, which starts where segment c-1 ended.
  cg.offsets.assign(nc + 1, 0);
  std::uint32_t w = 0;
  for (Vertex c = 0; c < nc; ++c) {
    for (std::uint32_t i = c == 0 ? 0 : fill[c - 1]; i < fill[c]; ++i) {
      if (w > cg.offsets[c] && cg.adj[w - 1] == cg.adj[i]) {
        cg.ewgt[w - 1] += cg.ewgt[i];
      } else {
        cg.adj[w] = cg.adj[i];
        cg.ewgt[w++] = cg.ewgt[i];
      }
    }
    cg.offsets[c + 1] = w;
  }
  cg.adj.resize(w);
  cg.ewgt.resize(w);
  return out;
}

std::uint64_t cut_of(const WGraph& g, const std::vector<std::uint8_t>& side) {
  std::uint64_t cut = 0;
  for (Vertex u = 0; u < g.n(); ++u)
    for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e)
      if (side[u] != side[g.adj[e]]) cut += g.ewgt[e];
  return cut / 2;
}

// Greedy BFS region growing to half the total vertex weight.
std::vector<std::uint8_t> grow_partition(const WGraph& g, Rng& rng) {
  const Vertex n = g.n();
  const std::uint64_t half = g.total_vwgt() / 2;
  std::vector<std::uint8_t> side(n, 1);
  std::vector<Vertex> queue;
  std::vector<std::uint8_t> seen(n, 0);
  Vertex start = static_cast<Vertex>(uniform_below(rng, n));
  queue.push_back(start);
  seen[start] = 1;
  std::uint64_t grown = 0;
  for (std::size_t head = 0; head < queue.size() && grown < half; ++head) {
    Vertex u = queue[head];
    if (grown + g.vwgt[u] > half + g.vwgt[u] / 2 && grown > 0) continue;
    side[u] = 0;
    grown += g.vwgt[u];
    for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      Vertex v = g.adj[e];
      if (!seen[v]) {
        seen[v] = 1;
        queue.push_back(v);
      }
    }
  }
  // If BFS exhausted a small component, assign remaining randomly.
  for (Vertex v = 0; v < n && grown < half; ++v) {
    if (side[v] == 1) {
      side[v] = 0;
      grown += g.vwgt[v];
    }
  }
  return side;
}

// Fiduccia–Mattheyses refinement over gain buckets with rows per side.  A
// pass tentatively moves every vertex once, each step taking the largest
// (gain, vertex) among the moves the balance bound allows, then rolls back
// to the best prefix.  An unlocked vertex never changes side during a
// pass, so "best feasible entry of either side" is the same pick a single
// ordered set over all unlocked vertices would make.
class FmRefiner {
 public:
  explicit FmRefiner(const WGraph& g) : g_(g) {
    const auto [lo, hi] = std::minmax_element(g.vwgt.begin(), g.vwgt.end());
    min_vwgt_ = *lo;
    max_side_ = (g.total_vwgt() + 1) / 2 + *hi;
    std::vector<std::int64_t> wdeg(g.n());
    for (Vertex u = 0; u < g.n(); ++u)
      for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) wdeg[u] += g.ewgt[e];
    const std::int64_t bound = GainBuckets::row_bound(g.n(), g.adj.size(), std::move(wdeg));
    buckets_.reset(g.n(), bound);
    moves_.reserve(g.n());
  }

  // One pass; returns true if the cut improved.
  bool pass(std::vector<std::uint8_t>& side) {
    const Vertex n = g_.n();
    std::uint64_t wgt[2] = {0, 0};
    buckets_.clear();
    for (Vertex u = 0; u < n; ++u) {
      wgt[side[u]] += g_.vwgt[u];
      // +w per cut edge, -w per uncut one (branch-free: sides are 0/1).
      std::int64_t gn = 0;
      const int su = side[u];
      for (std::uint32_t e = g_.offsets[u]; e < g_.offsets[u + 1]; ++e)
        gn += (2 * (side[g_.adj[e]] ^ su) - 1) * static_cast<std::int64_t>(g_.ewgt[e]);
      buckets_.insert(u, su, gn);
    }

    moves_.clear();
    std::int64_t cum = 0, best_cum = 0;
    std::size_t best_prefix = 0;
    for (Vertex step = 0; step < n; ++step) {
      GainBuckets::Entry best = GainBuckets::kNone;
      for (int s = 0; s < 2; ++s) {
        const std::uint64_t other = wgt[1 - s];
        if (other + min_vwgt_ > max_side_) continue;  // nothing on side s fits
        best = buckets_.best_fit(s, g_.vwgt.data(), max_side_ - other, best);
      }
      if (best == GainBuckets::kNone) break;
      const Vertex pick = GainBuckets::vertex(best);
      cum += GainBuckets::gain(best);
      const std::uint8_t from = side[pick];
      const std::uint8_t to = static_cast<std::uint8_t>(1 - from);
      buckets_.erase(pick);
      wgt[from] -= g_.vwgt[pick];
      wgt[to] += g_.vwgt[pick];
      side[pick] = to;
      moves_.push_back(pick);
      if (cum > best_cum) {
        best_cum = cum;
        best_prefix = moves_.size();
      }
      const std::uint32_t first = g_.offsets[pick];
      buckets_.moved_to(to, g_.adj.data() + first, g_.ewgt.data() + first,
                        g_.offsets[pick + 1] - first);
    }

    // Roll back moves past the best prefix.
    for (std::size_t i = moves_.size(); i-- > best_prefix;)
      side[moves_[i]] = static_cast<std::uint8_t>(1 - side[moves_[i]]);
    return best_cum > 0;
  }

 private:
  const WGraph& g_;
  GainBuckets buckets_;
  std::vector<Vertex> moves_;
  std::uint64_t min_vwgt_ = 0;
  std::uint64_t max_side_ = 0;
};

void refine(const WGraph& g, std::vector<std::uint8_t>& side, int max_passes) {
  FmRefiner fm(g);
  for (int p = 0; p < max_passes; ++p)
    if (!fm.pass(side)) break;
}

// Final strict rebalance on the original (unit-weight) graph: move minimum
// cut-damage vertices until sides differ by at most one vertex.
void strict_balance(const WGraph& g, std::vector<std::uint8_t>& side) {
  const Vertex n = g.n();
  std::int64_t diff = 0;
  for (Vertex v = 0; v < n; ++v) diff += side[v] ? -1 : 1;
  while (std::abs(diff) > 1) {
    std::uint8_t from = diff > 0 ? 0 : 1;
    Vertex pick = static_cast<Vertex>(-1);
    std::int64_t best_gain = std::numeric_limits<std::int64_t>::min();
    for (Vertex v = 0; v < n; ++v) {
      if (side[v] != from) continue;
      std::int64_t gn = 0;
      for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e)
        gn += (side[g.adj[e]] != from) ? g.ewgt[e] : -static_cast<std::int64_t>(g.ewgt[e]);
      if (gn > best_gain) {
        best_gain = gn;
        pick = v;
      }
    }
    side[pick] = static_cast<std::uint8_t>(1 - from);
    diff += from == 0 ? -2 : 2;
  }
}

// Connected components of a WGraph (BFS); each component's vertex list is
// in ascending order, components ordered by their smallest vertex.
std::vector<std::vector<Vertex>> components_of(const WGraph& g) {
  const Vertex n = g.n();
  std::vector<std::vector<Vertex>> comps;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<Vertex> queue;
  for (Vertex s = 0; s < n; ++s) {
    if (seen[s]) continue;
    queue.clear();
    queue.push_back(s);
    seen[s] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Vertex u = queue[head];
      for (std::uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
        const Vertex v = g.adj[e];
        if (!seen[v]) {
          seen[v] = 1;
          queue.push_back(v);
        }
      }
    }
    std::sort(queue.begin(), queue.end());
    comps.push_back(queue);
  }
  return comps;
}

// Disconnected graphs: assign whole components first (largest to the
// currently lighter side), then refine and strictly rebalance.  The BFS
// region grower used to exhaust a small component and top the side up in
// raw index order, over-assigning one side with arbitrary vertices of the
// remaining components before balancing could repair it; packing intact
// components keeps every zero-cut split at zero cut.
std::vector<std::uint8_t> components_first_run(
    const WGraph& g, const std::vector<std::vector<Vertex>>& comps,
    const BisectionOptions& opts) {
  std::vector<std::size_t> order(comps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return comps[a].size() > comps[b].size();
  });
  std::vector<std::uint8_t> side(g.n(), 0);
  std::uint64_t wgt[2] = {0, 0};
  for (std::size_t c : order) {
    const std::uint8_t s = wgt[1] < wgt[0] ? 1 : 0;
    for (Vertex v : comps[c]) {
      side[v] = s;
      wgt[s] += g.vwgt[v];
    }
  }
  refine(g, side, opts.fm_passes);
  strict_balance(g, side);
  refine(g, side, 2);
  strict_balance(g, side);
  return side;
}

std::vector<std::uint8_t> multilevel_run(const WGraph& g0, const BisectionOptions& opts,
                                         Rng& rng) {
  // Coarsen.  Level 0 is g0 itself, read through the reference, and
  // coarse[i] is level i + 1 (maps[i] takes level i onto it).
  std::vector<WGraph> coarse;
  std::vector<std::vector<Vertex>> maps;
  auto level = [&](std::size_t i) -> const WGraph& { return i == 0 ? g0 : coarse[i - 1]; };
  while (level(coarse.size()).n() > opts.coarsen_to) {
    const WGraph& finest = level(coarse.size());
    CoarseLevel cl = coarsen(finest, rng);
    if (cl.graph.n() >= finest.n() * 95 / 100) break;  // stalled
    maps.push_back(std::move(cl.map));
    coarse.push_back(std::move(cl.graph));
  }

  // Initial partition on the coarsest level: several grows, keep best.
  const WGraph& coarsest = level(coarse.size());
  std::vector<std::uint8_t> side;
  std::uint64_t best_cut = std::numeric_limits<std::uint64_t>::max();
  for (int t = 0; t < 4; ++t) {
    auto cand = grow_partition(coarsest, rng);
    refine(coarsest, cand, opts.fm_passes);
    std::uint64_t c = cut_of(coarsest, cand);
    if (c < best_cut) {
      best_cut = c;
      side = std::move(cand);
    }
  }

  // Uncoarsen + refine.
  for (std::size_t lvl = coarse.size(); lvl-- > 0;) {
    const WGraph& g = level(lvl);
    std::vector<std::uint8_t> fine(g.n());
    for (Vertex v = 0; v < g.n(); ++v) fine[v] = side[maps[lvl][v]];
    side = std::move(fine);
    refine(g, side, opts.fm_passes);
  }
  strict_balance(g0, side);
  refine(g0, side, 2);      // FM with slack may re-skew slightly...
  strict_balance(g0, side);  // ...so force exact balance last.
  return side;
}

}  // namespace

BisectionResult bisect(const Graph& g, const BisectionOptions& opts) {
  if (opts.restarts < 1) throw std::invalid_argument("bisect: restarts must be >= 1");
  // A gain is at most a vertex's weighted degree, and coarsening only sums
  // edge weights, so |gain| <= |E| at every level.  Up to 2^30 edges the
  // biased gain in GainBuckets::Entry fits its 32 bits and every gain fits
  // the buckets' int32 slots.
  if (g.num_edges() > (std::size_t{1} << 30))
    throw std::length_error("bisect: more than 2^30 edges overflow the FM gain keys");
  BisectionResult best;
  if (g.num_vertices() == 0) return best;
  WGraph w = to_wgraph(g);
  best.cut_edges = std::numeric_limits<std::uint64_t>::max();
  if (const auto comps = components_of(w); comps.size() > 1) {
    // Deterministic components-first assignment; restarts add nothing
    // because no randomized region growing is involved.
    best.side = components_first_run(w, comps, opts);
    best.cut_edges = cut_of(w, best.side);
  } else {
    for (int r = 0; r < opts.restarts; ++r) {
      Rng rng(split_seed(opts.seed, static_cast<std::uint64_t>(r)));
      auto side = multilevel_run(w, opts, rng);
      std::uint64_t cut = cut_of(w, side);
      if (cut < best.cut_edges) {
        best.cut_edges = cut;
        best.side = std::move(side);
      }
    }
  }
  best.part_sizes[0] = best.part_sizes[1] = 0;
  for (std::uint8_t s : best.side) ++best.part_sizes[s];
  return best;
}

std::uint64_t bisection_bandwidth(const Graph& g, const BisectionOptions& opts) {
  return bisect(g, opts).cut_edges;
}

double normalized_cut(const Graph& g, std::uint64_t cut) {
  std::uint32_t k = 0;
  if (!g.is_regular(&k) || k == 0) {
    // Fall back to average degree for non-regular graphs.
    k = static_cast<std::uint32_t>(2 * g.num_edges() / std::max<Vertex>(g.num_vertices(), 1));
  }
  double denom = static_cast<double>(g.num_vertices()) * k / 2.0;
  return static_cast<double>(cut) / denom;
}

double normalized_bisection_bandwidth(const Graph& g, const BisectionOptions& opts) {
  return normalized_cut(g, bisection_bandwidth(g, opts));
}

}  // namespace sfly
