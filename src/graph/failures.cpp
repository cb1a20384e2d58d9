#include "graph/failures.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace sfly {

namespace {

// Seed-stream tags so link and router sampling never consume the same
// RNG stream of one schedule seed.
constexpr std::uint64_t kLinkStream = 0x11F7;
constexpr std::uint64_t kRouterStream = 0x11F8;

// Uniform double in [0, 1) built from the raw generator output: the
// distribution adapters in <random> are implementation-defined, and the
// schedule must be bitwise stable across standard libraries.
double u01(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

}  // namespace

Graph delete_random_edges(const Graph& g, double fraction, std::uint64_t seed) {
  // A negative fraction would round-trip llround -> size_t into a huge
  // count that silently clamps to "delete every edge"; reject anything
  // outside the meaningful [0, 1] proportion up front.
  if (!(fraction >= 0.0 && fraction <= 1.0))
    throw std::invalid_argument(
        "delete_random_edges: fraction must be in [0, 1], got " +
        std::to_string(fraction));
  auto edges = g.edge_list();
  const std::size_t m = edges.size();
  const std::size_t to_delete =
      std::min<std::size_t>(m, static_cast<std::size_t>(std::llround(fraction * m)));
  Rng rng(seed);
  // Partial Fisher–Yates: move `to_delete` random edges to the tail.
  for (std::size_t i = 0; i < to_delete; ++i) {
    std::size_t j = i + uniform_below(rng, m - i);
    std::swap(edges[i], edges[j]);
  }
  edges.erase(edges.begin(), edges.begin() + to_delete);
  return Graph::from_edges(g.num_vertices(), std::move(edges));
}

// ---------------------------------------------------------------------------
// Dynamic failure schedules.

std::string churn_label(const ChurnSpec& spec) {
  if (!spec.any()) return "none";
  std::string out;
  if (spec.link_kills) out += std::to_string(spec.link_kills) + "L";
  if (spec.router_kills) {
    if (!out.empty()) out += "+";
    out += std::to_string(spec.router_kills) + "R";
  }
  if (spec.repair_ns > 0.0) out += "~";
  return out;
}

FailureSchedule make_failure_schedule(const Graph& g, const ChurnSpec& spec,
                                      std::uint64_t seed) {
  if (!(spec.start_ns >= 0.0) || !(spec.window_ns >= 0.0) ||
      !(spec.repair_ns >= 0.0) || !std::isfinite(spec.start_ns) ||
      !std::isfinite(spec.window_ns) || !std::isfinite(spec.repair_ns))
    throw std::invalid_argument(
        "make_failure_schedule: times must be finite and non-negative");

  FailureSchedule out;
  auto add = [&](ChurnKind down, ChurnKind up, double at, Vertex u, Vertex v) {
    out.push_back({at, down, u, v});
    if (spec.repair_ns > 0.0) out.push_back({at + spec.repair_ns, up, u, v});
  };

  if (spec.link_kills > 0) {
    auto edges = g.edge_list();
    const std::size_t kills =
        std::min<std::size_t>(spec.link_kills, edges.size());
    Rng rng(split_seed(seed, kLinkStream));
    // Partial Fisher–Yates: the first `kills` entries are a uniform
    // distinct sample, so no link ever fails twice in one schedule.
    for (std::size_t i = 0; i < kills; ++i) {
      std::size_t j = i + uniform_below(rng, edges.size() - i);
      std::swap(edges[i], edges[j]);
      add(ChurnKind::kLinkDown, ChurnKind::kLinkUp,
          spec.start_ns + u01(rng) * spec.window_ns, edges[i].first,
          edges[i].second);
    }
  }
  if (spec.router_kills > 0) {
    std::vector<Vertex> verts(g.num_vertices());
    std::iota(verts.begin(), verts.end(), 0);
    const std::size_t kills =
        std::min<std::size_t>(spec.router_kills, verts.size());
    Rng rng(split_seed(seed, kRouterStream));
    for (std::size_t i = 0; i < kills; ++i) {
      std::size_t j = i + uniform_below(rng, verts.size() - i);
      std::swap(verts[i], verts[j]);
      add(ChurnKind::kRouterDown, ChurnKind::kRouterUp,
          spec.start_ns + u01(rng) * spec.window_ns, verts[i], 0);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
              if (a.kind != b.kind)
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  return out;
}

}  // namespace sfly
