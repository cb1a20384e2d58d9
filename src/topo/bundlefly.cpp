#include "topo/bundlefly.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "gf/galois.hpp"
#include "graph/builder.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace sfly::topo {
namespace {

using AffineMap = std::pair<gf::Field::Elt, gf::Field::Elt>;  // i -> a*i + c

Graph assemble(const Graph& star, const Graph& intra, const gf::Field& f,
               const std::vector<std::pair<Vertex, Vertex>>& star_edges,
               const std::vector<AffineMap>& maps) {
  const std::uint64_t p = f.order();
  GraphBuilder b(static_cast<Vertex>(star.num_vertices() * p));
  auto vid = [&](Vertex sv, std::uint64_t i) {
    return static_cast<Vertex>(static_cast<std::uint64_t>(sv) * p + i);
  };
  for (Vertex v = 0; v < star.num_vertices(); ++v)
    for (auto [i, j] : intra.edge_list()) b.add_edge(vid(v, i), vid(v, j));
  for (std::size_t e = 0; e < star_edges.size(); ++e) {
    auto [u, v] = star_edges[e];
    auto [a, c] = maps[e];
    for (std::uint64_t i = 0; i < p; ++i)
      b.add_edge(vid(u, i),
                 vid(v, f.add(f.mul(a, static_cast<gf::Field::Elt>(i)), c)));
  }
  return std::move(b).build();
}

// Pairs at hop distance > 3 counted from a fixed source sample (full count
// when sources covers every vertex).  This is the hill-climb objective:
// BundleFly's defining property is diameter 3, so driving this to zero
// recovers it.
std::uint64_t far_pairs(const Graph& g, const std::vector<Vertex>& sources) {
  const auto hist = hop_histogram(g, sources);
  return std::accumulate(hist.begin() + std::min<std::size_t>(4, hist.size()), hist.end(),
                         std::uint64_t{0});
}

}  // namespace

Graph bundlefly_graph(const BundleFlyParams& params) {
  if (!params.valid())
    throw std::invalid_argument(
        "bundlefly_graph: p must be a prime power = 1 mod 4 and s a prime "
        "power with s mod 4 != 2");
  const std::uint64_t p = params.p;
  gf::Field f(p);

  Graph star = mms_graph(MmsParams{params.s});
  Graph intra = paley_graph(PaleyParams{p});
  auto star_edges = star.edge_list();

  Rng rng(split_seed(params.seed, p * 1000003 + params.s));
  auto random_map = [&]() -> AffineMap {
    return {static_cast<gf::Field::Elt>(1 + uniform_below(rng, p - 1)),
            static_cast<gf::Field::Elt>(uniform_below(rng, p))};
  };

  std::vector<AffineMap> maps(star_edges.size());
  if (params.shift == BundleShift::kIdentity) {
    for (auto& m : maps) m = {1, 0};
  } else {
    for (auto& m : maps) m = random_map();
  }

  if (params.shift == BundleShift::kOptimized) {
    const Vertex n = static_cast<Vertex>(params.num_vertices());
    // Auto budget: full evaluation for small graphs, sampled for larger.
    std::uint32_t iters = params.optimize_iters;
    std::size_t sample = n;
    if (n <= 400) {
      if (!iters) iters = 4000;
    } else if (n <= 1600) {
      if (!iters) iters = 1200;
      sample = 192;
    } else if (n <= 4000) {
      if (!iters) iters = 400;
      sample = 128;
    } else {
      if (!iters) iters = 150;
      sample = 64;
    }
    std::vector<Vertex> sources(sample);
    for (std::size_t i = 0; i < sample; ++i)
      sources[i] = static_cast<Vertex>(sample == n ? i : uniform_below(rng, n));

    std::uint64_t best = far_pairs(assemble(star, intra, f, star_edges, maps), sources);
    for (std::uint32_t it = 0; it < iters && best > 0; ++it) {
      std::size_t e = uniform_below(rng, maps.size());
      AffineMap old = maps[e];
      maps[e] = random_map();
      std::uint64_t score =
          far_pairs(assemble(star, intra, f, star_edges, maps), sources);
      if (score <= best)
        best = score;
      else
        maps[e] = old;
    }
  }

  Graph g = assemble(star, intra, f, star_edges, maps);
  std::uint32_t k = 0;
  if (!g.is_regular(&k) || k != params.radix())
    throw std::logic_error("bundlefly_graph: radix mismatch");
  return g;
}

std::vector<BundleFlyParams> bundlefly_instances(std::uint64_t max_p,
                                                 std::uint64_t max_s) {
  std::vector<BundleFlyParams> out;
  for (std::uint64_t p = 5; p <= max_p; ++p) {
    if (!PaleyParams{p}.valid()) continue;
    for (std::uint64_t s = 3; s <= max_s; ++s)
      if (MmsParams{s}.valid()) out.push_back({p, s});
  }
  return out;
}

}  // namespace sfly::topo
