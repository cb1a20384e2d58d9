#pragma once
// Random link-failure experiments (Section IV-A) and dynamic failure
// schedules (DESIGN.md §7).
//
// The paper deletes a fixed proportion of edges uniformly at random,
// re-measures diameter / mean distance / bisection bandwidth on the
// survivors, and averages over enough trials that the coefficient of
// variation of batch means drops below 10% (their footnote 1).  This
// module provides the subgraph sampler; the trial scheduling and that
// stopping rule live in engine::AdaptiveSweep and engine::cov_prefix
// (engine/campaign.hpp).
//
// Beyond the paper's static pre-run sampling, ChurnSpec/FailureSchedule
// describe *mid-run* link and router churn: a deterministic, seed-derived
// timeline of down/up events that the simulator consumes as first-class
// events (sim/simulator.hpp), so "what happens to in-flight traffic when
// a link dies" is a reproducible campaign axis.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace sfly {

/// Delete `round(fraction*m)` edges chosen uniformly at random.  Throws
/// std::invalid_argument unless `fraction` is a finite value in [0, 1].
[[nodiscard]] Graph delete_random_edges(const Graph& g, double fraction,
                                        std::uint64_t seed);

// ---------------------------------------------------------------------------
// Dynamic failure schedules.

enum class ChurnKind : std::uint8_t {
  kLinkDown,    // u, v = link endpoints (u < v)
  kLinkUp,
  kRouterDown,  // u = router; all incident links sever together
  kRouterUp,
};

/// One timed topology-state change.
struct ChurnEvent {
  double time_ns = 0.0;
  ChurnKind kind = ChurnKind::kLinkDown;
  Vertex u = 0, v = 0;
};

/// A chronological down/up timeline, ready for Simulator::inject_failures.
using FailureSchedule = std::vector<ChurnEvent>;

/// The flat, hashable churn knobs of a scenario — a campaign axis value.
/// All-zero kills means "static run" everywhere the spec travels.
struct ChurnSpec {
  std::uint32_t link_kills = 0;    // distinct links taken down
  std::uint32_t router_kills = 0;  // distinct routers taken down
  double start_ns = 0.0;           // earliest possible down time
  double window_ns = 0.0;          // down times uniform in [start, start+window]
  double repair_ns = 0.0;          // fixed down->up delay; 0 = no recovery

  [[nodiscard]] bool any() const { return link_kills > 0 || router_kills > 0; }
};

/// Compact axis label: "none", "2L", "1R", "2L+1R" (+ "~" when repairing).
[[nodiscard]] std::string churn_label(const ChurnSpec& spec);

/// Expand a ChurnSpec into the concrete event timeline for `g`: sample
/// `link_kills` distinct links and `router_kills` distinct routers
/// uniformly at random, give each a down time uniform in the spec window,
/// and (when repair_ns > 0) a matching up event repair_ns later.  Events
/// sort by (time, kind, u, v), so the timeline — like everything else
/// seeded — is bitwise deterministic for a given (graph, spec, seed).
/// Kill counts clamp to the graph's link/router population.  Throws
/// std::invalid_argument on negative or non-finite times.
[[nodiscard]] FailureSchedule make_failure_schedule(const Graph& g,
                                                    const ChurnSpec& spec,
                                                    std::uint64_t seed);

}  // namespace sfly
