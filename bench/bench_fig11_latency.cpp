// Fig. 11 — average and maximum end-to-end physical latency of
// SpectralFly and SlimFly relative to the SkyWalk topology, as a function
// of switch latency (0-250 ns), with 5 ns/m cable delay on the heuristic
// machine-room embedding.
//
// Campaign-backed: the QAP layout heuristic dominates this bench, and
// every subject's layout is independent — a pair-major topology axis of
// kLayout scenarios fanned over --threads.  The cheap parts (SkyWalk
// instantiations, Dijkstra latency sweeps over the returned placements)
// stay bench-side; the sweeps run on the engine's --threads-wide pool.

#include "bench_common.hpp"

#include "layout/latency.hpp"
#include "topo/skywalk.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Fig. 11: avg/max end-to-end latency relative to SkyWalk vs switch latency",
       "#   --pairs N     topology pairs (default 2, --full = 4)\n"
       "#   --skywalks N  SkyWalk instantiations averaged (default 3, paper 20)\n"
       "#   --threads N   engine worker threads (default: all hardware threads)",
       {{"--pairs", true, "topology pairs (default 2, --full = 4)"},
        {"--skywalks", true,
         "SkyWalk instantiations averaged (default 3, paper 20)"}}});
  const std::size_t npairs =
      opts.full() ? 4 : std::min<std::size_t>(opts.flags().get("--pairs", 2), 4);
  const auto skywalks = opts.flags().get<int>(
      "--skywalks", opts.full() ? 20 : 3);

  const std::pair<topo::LpsParams, topo::SlimFlyParams> pairs[] = {
      {{11, 7}, {9}}, {{19, 7}, {13}}, {{23, 11}, {17}}, {{29, 13}, {23}}};
  const double switch_lat[] = {0, 50, 100, 150, 200, 250};

  // All subjects' layouts as one declared phase (pair-major, LPS then SF).
  std::vector<engine::TopologySpec> specs;
  for (std::size_t i = 0; i < npairs; ++i) {
    specs.push_back({pairs[i].first.name(),
                     [p = pairs[i].first] { return topo::lps_graph(p); }});
    specs.push_back({pairs[i].second.name(),
                     [p = pairs[i].second] { return topo::slimfly_graph(p); }});
  }

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "fig11_latency");
  engine::CampaignBuilder grid;
  grid.proto().kind = engine::Kind::kLayout;
  grid.proto().layout_em_rounds = 3;
  grid.proto().layout_swap_passes = 3;
  grid.proto().bisection_restarts = 0;  // Fig. 11 needs wires only, not the cut
  grid.proto().seed = opts.seed_or(23);
  grid.topologies(std::move(specs));
  auto& phase = camp.analytic("layouts", std::move(grid));
  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);
  const auto& layouts = phase.results();

  for (std::size_t i = 0; i < npairs; ++i) {
    // Shared-size SkyWalk reference, averaged over instantiations, sized
    // from the LPS subject's layout row (its pristine graph's n and degree).
    const auto& lps = layouts[2 * i];
    const auto& sf = layouts[2 * i + 1];
    std::vector<topo::SkyWalkInstance> skies;
    for (int s = 0; s < skywalks; ++s)
      skies.push_back(topo::skywalk_graph(
          {lps.vertices, lps.radix, static_cast<std::uint64_t>(s) + 1, 1.0}));

    Table t({"Switch ns", lps.topology + " avg", lps.topology + " max",
             sf.topology + " avg", sf.topology + " max"});
    for (double sl : switch_lat) {
      double sky_avg = 0, sky_max = 0;
      for (const auto& sky : skies) {
        auto lat =
            layout::physical_latency(sky.graph, sky.placement, sl, &eng.pool());
        sky_avg += lat.mean_ns;
        sky_max += lat.max_ns;
      }
      sky_avg /= skywalks;
      sky_max /= skywalks;

      std::vector<std::string> row{Table::num(sl, 0)};
      for (const engine::Result* lay : {&lps, &sf}) {
        if (!lay->ok) {
          row.push_back("ERR");
          row.push_back("ERR");
          continue;
        }
        // The cached pristine graph the layout ran on (built once).
        auto lat = layout::physical_latency(
            *eng.artifacts().get(lay->topology)->graph(), lay->placement, sl,
            &eng.pool());
        row.push_back(Table::num(lat.mean_ns / sky_avg, 3));
        row.push_back(Table::num(lat.max_ns / sky_max, 3));
      }
      t.add_row(std::move(row));
    }
    std::printf("== Fig. 11, size pair %zu: latency ratio vs SkyWalk ==\n", i + 1);
    t.print();
    std::printf("\n");
  }
  std::printf("# Paper shape: ratios below ~1.0 for most switch latencies\n"
              "# (both low-diameter topologies beat SkyWalk once switch delay\n"
              "# matters), with SpectralFly ~5-10%% above SlimFly.\n");
  return 0;
}
