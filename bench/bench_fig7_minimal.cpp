// Fig. 7 — the random micro-benchmark under minimal routing, reported as
// speedup relative to DragonFly-Min at the same offered load.
//
// Campaign-backed: one declared (pattern x load x topology) grid sharing
// each topology's cached routing tables across the whole sweep.

#include "bench_common.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Fig. 7: minimal-routing speedup vs DragonFly (random pattern)",
       "#   --ranks N    MPI ranks (default 1024; --full = 8192)\n"
       "#   --msgs N     messages per rank (default 24)\n"
       "#   --threads N  engine worker threads (default: all hardware threads)",
       {{"--ranks", true, "MPI ranks (default 1024; --full = 8192)"},
        {"--msgs", true, "messages per rank (default 24)"}}});
  const auto nranks = opts.flags().get<std::uint32_t>(
      "--ranks", opts.full() ? 8192 : 1024);
  const auto msgs = opts.flags().get<std::uint32_t>("--msgs", 24);

  auto topos = bench::simulation_topologies(opts.full());
  const auto loads = bench::load_points();

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "fig7_minimal");
  engine::CampaignBuilder grid;
  grid.patterns({sim::Pattern::kRandom})
      .loads(loads)
      .topologies(topos)
      .each([&, seed = opts.seed_or(42)](engine::Scenario& s) {
        s.algo = routing::Algo::kMinimal;
        s.workload.nranks = nranks;
        s.workload.messages_per_rank = msgs;
        s.seed = seed;
      });
  auto& sweep = camp.sims("sweep", std::move(grid));
  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);

  std::printf("== Fig. 7 (random), minimal routing, speedup vs DragonFly ==\n");
  bench::speedup_table(sweep, 0, loads, topos).print();
  std::printf("\n# Paper shape: SpectralFly above 1.0 throughout; bit shuffle\n"
              "# and transpose behave similarly (see bench_fig6 for those).\n");
  return 0;
}
