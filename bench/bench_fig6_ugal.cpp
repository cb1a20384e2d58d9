// Fig. 6 — performance across topologies, traffic patterns and offered
// loads under UGAL-L routing, reported as speedup of each topology's
// maximum message time relative to DragonFly-UGAL at the same load.
//
// Campaign-backed: the bench declares the (pattern x load x topology)
// grid; the engine expands it, shares each topology's artifacts across
// all 24 points per pattern, and streams results through the standard
// sinks (--csv/--json).

#include "bench_common.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Fig. 6: UGAL-L speedup vs DragonFly across patterns and loads",
       "#   --ranks N         MPI ranks (default 1024; --full = 8192)\n"
       "#   --msgs N          messages per rank (default 24)\n"
       "#   --threads N       engine worker threads (default: all hardware threads)\n"
       "#   --workers N       distribute the campaign across N worker processes",
       {{"--ranks", true, "MPI ranks (default 1024; --full = 8192)"},
        {"--msgs", true, "messages per rank (default 24)"}}});
  const auto nranks = opts.flags().get<std::uint32_t>(
      "--ranks", opts.full() ? 8192 : 1024);
  const auto msgs = opts.flags().get<std::uint32_t>("--msgs", 24);

  auto topos = bench::simulation_topologies(opts.full());
  const std::vector<sim::Pattern> patterns = {
      sim::Pattern::kRandom, sim::Pattern::kShuffle, sim::Pattern::kBitReverse,
      sim::Pattern::kTranspose};
  const auto loads = bench::load_points();

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "fig6_ugal");
  engine::CampaignBuilder grid;
  grid.patterns(patterns).loads(loads).topologies(topos)
      .each([&, seed = opts.seed_or(42)](engine::Scenario& s) {
        s.algo = routing::Algo::kUgalL;
        s.workload.nranks = nranks;
        s.workload.messages_per_rank = msgs;
        s.seed = seed;
      });
  auto& sweep = camp.sims("sweep", std::move(grid));

  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    std::printf("== Fig. 6 (%s), UGAL-L, speedup vs DragonFly ==\n",
                sim::pattern_name(patterns[p]));
    bench::speedup_table(sweep, p, loads, topos).print();
    std::printf("\n");
  }
  std::printf("# Paper shape: SpectralFly best on all four patterns (superior\n"
              "# bisection + path diversity); saturation at/beyond 0.7 load.\n");
  return 0;
}
