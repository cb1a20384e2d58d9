#pragma once
// Physical end-to-end latency evaluation (Fig. 11): latency-minimizing
// paths over the placed topology with 5 ns/m cable delay plus a uniform
// per-hop switch latency.

#include "graph/graph.hpp"
#include "layout/cabinets.hpp"
#include "util/parallel.hpp"

namespace sfly::layout {

inline constexpr double kCableDelayNsPerM = 5.0;

struct LatencyStatsPhys {
  double mean_ns = 0.0;  // over ordered vertex pairs
  double max_ns = 0.0;   // end-to-end (weighted diameter)
};

/// All-pairs minimum-latency paths (Dijkstra per source, parallel over
/// sources on `pool`; the same bits at any width).
/// Each hop costs wire_length * 5 ns + switch_latency_ns.
[[nodiscard]] LatencyStatsPhys physical_latency(const Graph& g,
                                                const Placement& placement,
                                                double switch_latency_ns,
                                                TaskPool* pool = nullptr);

}  // namespace sfly::layout
