// Availability under live churn — links and routers failing (and
// optionally recovering) *mid-run*, with in-flight traffic rerouted from
// wherever it happens to be queued.  Not a paper figure: the paper's
// Section VI-C studies static link deletion (bench_fig8_failures); this
// bench measures the dynamic counterpart the same topology set.
//
// For each topology x churn level the campaign runs the same UGAL-L
// random-traffic workload while a seed-derived FailureSchedule fires
// inside the event loop, and reports the availability curve: delivered
// message fraction, packet reroutes/drops, and the post-churn p99 (over
// messages delivered at or after the first failure).
//
// Determinism contract: the schedule derives from (seed, churn spec)
// only, so rows are bitwise identical at any --threads count and across
// kill/--resume cycles (the churn spec folds into the journal batch
// fingerprint; CI diffs --threads 1 vs 4 byte for byte).

#include "bench_common.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Availability under mid-run link/router churn (UGAL-L, random traffic)",
       "#   --ranks N         MPI ranks (default 1024; --full = 8192)\n"
       "#   --msgs N          messages per rank (default 24)\n"
       "#   --load F          offered load (default 0.5)\n"
       "#   --start NS        churn window start (default 1000 ns)\n"
       "#   --window NS       churn window length (default 4000 ns)\n"
       "#   --repair NS       repair delay for the '~' levels (default 4000 ns)\n"
       "#   --threads N       engine worker threads (default: all hardware threads)\n"
       "#   --workers N       distribute the campaign across N worker processes",
       {{"--ranks", true, "MPI ranks (default 1024; --full = 8192)"},
        {"--msgs", true, "messages per rank (default 24)"},
        {"--load", true, "offered load (default 0.5)"},
        {"--start", true, "churn window start in ns (default 1000)"},
        {"--window", true, "churn window length in ns (default 4000)"},
        {"--repair", true, "repair delay in ns for '~' levels (default 4000)"}}});
  const auto nranks = opts.flags().get<std::uint32_t>(
      "--ranks", opts.full() ? 8192 : 1024);
  const auto msgs = opts.flags().get<std::uint32_t>("--msgs", 24);
  const double load = opts.flags().get_f64("--load", 0.5);
  const double start_ns = opts.flags().get_f64("--start", 1000.0);
  const double window_ns = opts.flags().get_f64("--window", 4000.0);
  const double repair_ns = opts.flags().get_f64("--repair", 4000.0);

  auto topos = bench::simulation_topologies(opts.full());

  // The availability axis: escalating permanent link loss, one dead
  // router, and two self-healing variants (same kills, repaired after
  // --repair ns) to exercise recovery + reconvergence.
  auto level = [&](std::uint32_t links, std::uint32_t routers, bool repairs) {
    ChurnSpec c;
    c.link_kills = links;
    c.router_kills = routers;
    c.start_ns = start_ns;
    c.window_ns = window_ns;
    c.repair_ns = repairs ? repair_ns : 0.0;
    return c;
  };
  const std::vector<ChurnSpec> levels = {
      level(0, 0, false), level(1, 0, false), level(2, 0, false),
      level(4, 0, false), level(8, 0, false), level(0, 1, false),
      level(4, 0, true),  level(0, 1, true)};

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "churn");
  engine::CampaignBuilder grid;
  grid.churns(levels).topologies(topos)
      .each([&, seed = opts.seed_or(42)](engine::Scenario& s) {
        s.algo = routing::Algo::kUgalL;
        s.workload.pattern = sim::Pattern::kRandom;
        s.workload.offered_load = load;
        s.workload.nranks = nranks;
        s.workload.messages_per_rank = msgs;
        s.seed = seed;
      });
  auto& sweep = camp.sims("availability", std::move(grid));

  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);

  for (std::size_t t = 0; t < topos.size(); ++t) {
    std::printf("== availability under churn: %s (UGAL-L, random, load %.2f) ==\n",
                topos[t].name.c_str(), load);
    Table tab({"churn", "delivered", "reroutes", "drops", "p99 ns",
               "post-churn p99 ns"});
    for (std::size_t c = 0; c < levels.size(); ++c) {
      const auto& r = sweep.sim_at({c, t});
      tab.add_row({churn_label(levels[c]), Table::num(r.delivered, 4),
                   std::to_string(r.reroutes), std::to_string(r.drops),
                   Table::num(r.p99_latency_ns, 1),
                   Table::num(r.post_churn_p99_ns, 1)});
    }
    tab.print();
    std::printf("\n");
  }
  std::printf(
      "# Expected shape: SpectralFly's path diversity keeps the delivered\n"
      "# fraction ~1.0 under isolated link churn (reroutes, not drops);\n"
      "# drops appear only when a destination router is severed.  '~'\n"
      "# levels repair after %.0f ns and should recover toward the\n"
      "# churn-free p99.\n",
      repair_ns);
  return 0;
}
