#pragma once
// Multilevel graph bisection — stand-in for the paper's use of METIS.
//
// The paper approximates bisection bandwidth by the METIS min-cut of an
// exact bipartition (an upper bound on the true minimum), paired with the
// Fiedler spectral lower bound.  We implement the same multilevel recipe
// METIS uses: heavy-edge-matching coarsening, greedy region-growing initial
// partitions, and Fiduccia–Mattheyses refinement at every level, with
// randomized restarts.
//
// FM keeps its gains in buckets (partition/gain_buckets.hpp): per side and
// gain value, a bitset over vertex ids, so a neighbour's gain change moves
// one bit and the best entry of a bucket is its highest set bit.  Each step
// moves the largest (gain, vertex) the balance bound allows, ties to the
// higher vertex id, so the picks (and every cut and side vector) are those
// of one ordered set over all unlocked vertices; tests/test_partition.cpp
// pins them by digest.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sfly {

struct BisectionOptions {
  int restarts = 4;            // independent multilevel runs; best cut kept
  int fm_passes = 8;           // max FM passes per level
  std::uint64_t seed = 1;
  Vertex coarsen_to = 64;      // stop coarsening below this many vertices
};

struct BisectionResult {
  std::uint64_t cut_edges = 0;          // edges crossing the bipartition
  std::vector<std::uint8_t> side;       // 0/1 per vertex
  Vertex part_sizes[2] = {0, 0};
};

/// Balanced (⌈n/2⌉ / ⌊n/2⌋) bisection minimizing the edge cut.  An empty
/// graph bisects to cut 0 and an empty side vector.  Throws
/// std::invalid_argument when restarts < 1 and std::length_error above
/// 2^30 edges.
[[nodiscard]] BisectionResult bisect(const Graph& g, const BisectionOptions& opts = {});

/// Convenience: the cut value only (the paper's "bisection bandwidth" in
/// link units).
[[nodiscard]] std::uint64_t bisection_bandwidth(const Graph& g,
                                                const BisectionOptions& opts = {});

/// Normalize an edge-cut value by n*k/2 (k = the degree when regular,
/// else the average degree) — the paper's Fig. 4 normalization, shared by
/// normalized_bisection_bandwidth and the experiment engine.
[[nodiscard]] double normalized_cut(const Graph& g, std::uint64_t cut);

/// Normalized bisection bandwidth: cut / (n*k/2), the paper's Fig. 4
/// normalization.  A random bipartition scores ~1/2 on this scale; the
/// Ramanujan guarantee is >= (k - 2*sqrt(k-1)) / (2k).
[[nodiscard]] double normalized_bisection_bandwidth(const Graph& g,
                                                    const BisectionOptions& opts = {});

}  // namespace sfly
