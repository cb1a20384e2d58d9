#pragma once
// The bit-parallel multi-source BFS sweep (Then et al., VLDB 2015) behind
// hop_histogram (graph/metrics.cpp) and routing::Tables::build.
//
// A batch packs up to 256 sources into 4 x 64-bit words per vertex, one bit
// lane per source, and every vertex holds seen/frontier/next lane sets.  A
// level is one pull sweep over the CSR: next[v] = OR of frontier[u] over
// neighbors u, minus seen[v], so one pass advances every search in the
// batch by a hop.  Lanes past the batch start seen, so a vertex every
// search has reached is exactly an all-ones word set and the sweep skips
// it.  The caller sees each (level, vertex, new lanes) triple once and
// decides what to keep: hop_histogram counts the lanes, Tables stores the
// level as a distance byte.

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace sfly::detail {

class MsBfs {
 public:
  static constexpr std::size_t kWords = 4;
  static constexpr std::size_t kLanes = 64 * kWords;
  using Lanes = std::array<std::uint64_t, kWords>;

  /// Sweeps one batch: lane i starts at sources[i] (at most kLanes).  At
  /// each level d = 1, 2, ..., max_level calls visit(d, v, w) for every
  /// vertex v that the non-empty lane set w first reaches at level d, and
  /// stops after the first level that reaches nothing.  Returns the
  /// deepest level that reached something (0 if none).
  template <class Visit>
  std::size_t run(const Graph& g, std::span<const Vertex> sources,
                  std::size_t max_level, Visit&& visit);

  /// The lanes that reached every vertex in the last run (lanes past its
  /// sources count as reached).
  [[nodiscard]] Lanes reached_all() const {
    Lanes all;
    all.fill(~std::uint64_t{0});
    for (const Lanes& s : seen_)
      for (std::size_t k = 0; k < kWords; ++k) all[k] &= s[k];
    return all;
  }

 private:
  std::vector<Lanes> seen_, frontier_, next_;  // 3 * n * 32 bytes
};

template <class Visit>
std::size_t MsBfs::run(const Graph& g, std::span<const Vertex> sources,
                       std::size_t max_level, Visit&& visit) {
  const Vertex n = g.num_vertices();
  Lanes unused{};
  for (std::size_t i = sources.size(); i < kLanes; ++i)
    unused[i / 64] |= std::uint64_t{1} << (i % 64);
  seen_.assign(n, unused);
  frontier_.assign(n, Lanes{});
  next_.resize(n);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    seen_[sources[i]][i / 64] |= bit;
    frontier_[sources[i]][i / 64] |= bit;
  }

  // Locals, not members: a visitor's byte stores may alias anything reached
  // through `this` or `g`, which would reload them in the edge loop.
  const auto offsets = g.raw_offsets();
  const auto adj = g.raw_adjacency();
  Lanes* const seen = seen_.data();
  Lanes* frontier = frontier_.data();
  Lanes* next = next_.data();
  std::size_t depth = 0;
  for (std::size_t d = 1; d <= max_level; ++d) {
    std::uint64_t any = 0;
    for (Vertex v = 0; v < n; ++v) {
      Lanes& sv = seen[v];
      Lanes w{};
      if ((sv[0] & sv[1] & sv[2] & sv[3]) != ~std::uint64_t{0}) {
        for (std::uint32_t e = offsets[v]; e < offsets[v + 1]; ++e)
          for (std::size_t k = 0; k < kWords; ++k) w[k] |= frontier[adj[e]][k];
        std::uint64_t fresh = 0;
        for (std::size_t k = 0; k < kWords; ++k) {
          w[k] &= ~sv[k];
          sv[k] |= w[k];
          fresh |= w[k];
        }
        if (fresh != 0) visit(d, v, w);
        any |= fresh;
      }
      next[v] = w;
    }
    if (any == 0) break;
    depth = d;
    std::swap(frontier, next);
  }
  return depth;
}

}  // namespace sfly::detail
