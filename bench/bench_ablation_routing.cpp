// Ablation — routing-scheme and virtual-channel design choices on
// SpectralFly (DESIGN.md §5): the paper's three schemes plus the library's
// UGAL-G and adaptive-minimal extensions, and the VC-pool sizing rule.
//
// Campaign-backed, two phases: a declared (load x algo) grid, and a
// *deferred* VC-sizing phase whose axis values derive from the cached
// tables' diameter (the paper's 2d+1 rule) — the grid is expanded only at
// execution time, after the shared artifacts exist.  All points share ONE
// topology, so the engine builds the graph and all-pairs routing tables
// once (the seed version rebuilt the tables for each of its 18 runs).

#include "bench_common.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Ablation: routing schemes and VC sizing on SpectralFly",
       "#   --ranks N    MPI ranks (default 512)\n"
       "#   --msgs N     messages per rank (default 16)\n"
       "#   --threads N  engine worker threads (default: all hardware threads)",
       {{"--ranks", true, "MPI ranks (default 512; --full = 2048)"},
        {"--msgs", true, "messages per rank (default 16)"}}});
  const auto nranks = opts.flags().get<std::uint32_t>(
      "--ranks", opts.full() ? 2048 : 512);
  const auto msgs = opts.flags().get<std::uint32_t>("--msgs", 16);

  const auto sf = bench::simulation_topologies(false)[0];  // SpectralFly
  const std::uint64_t seed = opts.seed_or(42);

  const std::vector<routing::Algo> algos = {
      routing::Algo::kMinimal, routing::Algo::kAdaptiveMin,
      routing::Algo::kValiant, routing::Algo::kUgalL, routing::Algo::kUgalG};
  const std::vector<double> loads = {0.2, 0.4, 0.6};

  auto base_knobs = [&](engine::Scenario& s) {
    s.workload.pattern = sim::Pattern::kShuffle;
    s.workload.nranks = nranks;
    s.workload.messages_per_rank = msgs;
    s.seed = seed;
  };

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "ablation_routing");

  // Phase 1: the routing grid; rows are load-major, columns algo-minor.
  engine::CampaignBuilder grid;
  grid.topologies({sf}).loads(loads).algos(algos)
      .each(base_knobs);
  auto& grid_phase = camp.sims("routing grid", std::move(grid));

  // Phase 2: VC sizing — the paper's rule (2d+1 for UGAL) vs a starved
  // pool.  The diameter comes from the cached tables, so the axis exists
  // only once phase 1's artifacts do: a deferred grid.
  std::vector<std::uint32_t> vc_points;  // filled at expansion time
  auto& vc_phase = camp.sims_deferred(
      "vc sizing", 3, [&](engine::Engine& e) {
        const std::uint32_t paper_vcs =
            2 * e.artifacts().get(sf.name)->tables()->diameter() + 1;
        vc_points = {paper_vcs, paper_vcs / 2 + 1, 2u};
        engine::CampaignBuilder vc;
        vc.proto().topology = sf.name;
        vc.proto().algo = routing::Algo::kUgalL;
        vc.proto().workload.offered_load = 0.5;
        vc.vc_overrides(vc_points).each(base_knobs);
        return vc;
      });
  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);

  std::printf("== Routing-scheme ablation (max message time, %s pattern) ==\n",
              sim::pattern_name(sim::Pattern::kShuffle));
  Table t({"Load", "minimal", "adaptive-min", "valiant", "ugal-l", "ugal-g"});
  for (std::size_t li = 0; li < loads.size(); ++li) {
    std::vector<std::string> row{Table::num(loads[li], 1)};
    for (std::size_t a = 0; a < algos.size(); ++a) {
      const auto& r = grid_phase.sim_at({0, li, a});
      row.push_back(r.ok ? Table::num(r.max_latency_ns / 1000.0, 1) : "ERR");
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::printf("# (values in microseconds; lower is better)\n\n");

  std::printf("== VC-pool ablation (UGAL-L, bit-shuffle @ 0.5) ==\n");
  const auto& vc_results = vc_phase.sim_results();
  Table t2({"VCs", "Max message us"});
  for (std::size_t i = 0; i < vc_points.size(); ++i)
    t2.add_row({std::to_string(vc_points[i]) +
                    (i == 0 ? " (paper rule)" : ""),
                vc_results[i].ok
                    ? Table::num(vc_results[i].max_latency_ns / 1000.0, 1)
                    : "ERR"});
  t2.print();
  std::printf("# Fewer VCs than hops shares the top channel among tail hops; at\n"
              "# moderate load the effect is mild, under saturation it grows.\n");
  return 0;
}
