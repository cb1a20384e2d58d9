#pragma once
// The two perfbench workloads and the unit-cost layer probes shared by
// every traced run.

#include "common.hpp"

namespace perfbench {

Outcome run_sim_sweep(const Options& o);
Outcome run_failure_sweep(const Options& o);

/// Per-call costs of the hot layers, timed on a fixed fixture (the
/// reduced-preset LPS(11,7) network) so every traced run reports them
/// the same way: event-queue push+pop, next-hop pick, source decisions,
/// flat-JSON scan, frame encode+decode, QueryEngine::handle.  The cell
/// costs come from LPS(29,17), served through CellIndex.
struct UnitCosts {
  double event_queue_ns = 0;
  double pick_ns = 0;
  double decision_minimal_ns = 0;
  double decision_valiant_ns = 0;
  double decision_ugal_ns = 0;
  double json_scan_us = 0;
  double frame_us = 0;
  double handle_route_us = 0;
  double handle_stats_us = 0;
  double cell_build_us_per_vertex = 0;
  double recursive_bisection_s = 0;
  double cell_prepare_ms = 0;
  double cell_hop_ns = 0;
};
[[nodiscard]] UnitCosts measure_unit_costs();
void report_unit_costs(Outcome& out, const UnitCosts& u);

/// Event-queue depth the event_queue_ns probe runs at.
inline constexpr std::size_t kProbeQueueDepth = 4096;

}  // namespace perfbench
