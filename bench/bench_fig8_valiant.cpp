// Fig. 8 — Valiant vs minimal routing on SpectralFly alone: execution
// time (max message time) normalized to minimal routing, per pattern and
// offered load.  Values > 1 mean Valiant is faster.
//
// Campaign-backed: one declared (load x pattern x algo) grid over ONE
// topology, so the artifact cache builds SpectralFly's all-pairs tables
// once for the 48-scenario batch (the seed version rebuilt them for
// every single point).

#include "bench_common.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Fig. 8: Valiant routing on SpectralFly, speedup vs SpectralFly-minimal",
       "#   --ranks N    MPI ranks (default 1024; --full = 8192)\n"
       "#   --msgs N     messages per rank (default 24)\n"
       "#   --threads N  engine worker threads (default: all hardware threads)",
       {{"--ranks", true, "MPI ranks (default 1024; --full = 8192)"},
        {"--msgs", true, "messages per rank (default 24)"}}});
  const auto nranks = opts.flags().get<std::uint32_t>(
      "--ranks", opts.full() ? 8192 : 1024);
  const auto msgs = opts.flags().get<std::uint32_t>("--msgs", 24);

  const auto sf = bench::simulation_topologies(opts.full())[0];  // SpectralFly
  const std::vector<sim::Pattern> patterns = {
      sim::Pattern::kRandom, sim::Pattern::kShuffle, sim::Pattern::kBitReverse,
      sim::Pattern::kTranspose};
  const auto loads = bench::load_points();

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "fig8_valiant");
  // Load-major, pattern-minor, minimal before Valiant.
  engine::CampaignBuilder grid;
  grid.topologies({sf})
      .loads(loads)
      .patterns(patterns)
      .algos({routing::Algo::kMinimal, routing::Algo::kValiant})
      .each([&, seed = opts.seed_or(42)](engine::Scenario& s) {
        s.workload.nranks = nranks;
        s.workload.messages_per_rank = msgs;
        s.seed = seed;
      });
  auto& sweep = camp.sims("sweep", std::move(grid));
  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);

  Table t({"Offered load", "random", "bit-shuffle", "bit-reverse", "transpose"});
  for (std::size_t li = 0; li < loads.size(); ++li) {
    std::vector<std::string> row{Table::num(loads[li], 1)};
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      const auto& lat_min = sweep.sim_at({0, li, p, 0});
      const auto& lat_val = sweep.sim_at({0, li, p, 1});
      row.push_back(lat_min.ok && lat_val.ok && lat_val.max_latency_ns > 0
                        ? Table::num(lat_min.max_latency_ns /
                                         lat_val.max_latency_ns, 2)
                        : "ERR");
    }
    t.add_row(std::move(row));
  }
  std::printf("== Fig. 8: SpectralFly Valiant speedup over minimal ==\n");
  t.print();
  std::printf(
      "\n# Paper shape: structured patterns (shuffle/reverse/transpose) gain\n"
      "# from Valiant's extra path diversity; the random pattern loses (its\n"
      "# minimal routes already spread, Valiant just doubles path length).\n");
  return 0;
}
