#pragma once
// BFS-based structural metrics: distances, diameter, average shortest path
// length, girth, connectivity, bipartiteness.
//
// All-sources distance counts run as a bit-parallel multi-source BFS
// (hop_histogram over the sweep in graph/msbfs.hpp, which
// routing::Tables::build shares): sources go in batches of 256, one bit
// lane each, and a level's pair count is the popcount of the lanes it
// newly reaches; a batch ends at the first empty level.  Batches run
// serially over 3 * n * 32 bytes of scratch (campaigns run scenarios in
// parallel).
// girth and the single-source routines stay scalar BFS.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace sfly {

inline constexpr std::int32_t kUnreachable = -1;

/// Single-source BFS hop distances (kUnreachable where disconnected).
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const Graph& g, Vertex src);

struct DistanceStats {
  std::int32_t diameter = 0;       // max finite distance
  double mean_distance = 0.0;      // over ordered pairs u != v, connected pairs
  bool connected = true;
  std::vector<std::uint64_t> histogram;  // histogram[d] = #ordered pairs at hop d
};

/// Pair counts by hop distance from a list of sources: hist[d] = number of
/// (source, vertex) pairs at distance d >= 1; hist[0] = 0 and the length is
/// the deepest level reached + 1 (at least 1).  Unreachable pairs are not
/// counted.  Sources may repeat; every occurrence counts on its own.
[[nodiscard]] std::vector<std::uint64_t> hop_histogram(const Graph& g,
                                                       std::span<const Vertex> sources);

/// All-pairs distance statistics (exact; hop_histogram over every vertex).
[[nodiscard]] DistanceStats distance_stats(const Graph& g);

/// Exact girth (length of shortest cycle); returns 0 for forests.
/// Early-exits once a 3-cycle is found.
[[nodiscard]] std::uint32_t girth(const Graph& g);

/// Number of connected components.
[[nodiscard]] std::uint32_t num_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

/// 2-colorability; if bipartite and `side` non-null, writes the parity
/// (0/1) of each vertex (component-wise).
[[nodiscard]] bool is_bipartite(const Graph& g, std::vector<std::uint8_t>* side = nullptr);

/// Eccentricity of one vertex (max finite BFS distance).
[[nodiscard]] std::int32_t eccentricity(const Graph& g, Vertex v);

}  // namespace sfly
