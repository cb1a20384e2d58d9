// Table II — wire length and energy efficiency of the heuristic machine-
// room embedding for comparable SpectralFly and SlimFly topologies, with
// SkyWalk wire statistics (mean over instantiations) in parentheses.
//
// Campaign-backed: a pair-major topology axis of kLayout scenarios (QAP
// embedding + wiring classification + bisection + power model) submitted
// as a single batch over --threads.  The cheap SkyWalk comparator loop
// (no QAP — its generator fixes the placement) stays bench-side.

#include "bench_common.hpp"

#include "layout/wiring.hpp"
#include "topo/skywalk.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Table II: wire length & energy efficiency, LPS vs SlimFly (+SkyWalk)",
       "#   --pairs N      topology pairs to run (default 2, --full = 4)\n"
       "#   --skywalks N   SkyWalk instantiations averaged (default 5, paper 20)\n"
       "#   --threads N    engine worker threads (default: all hardware threads)",
       {{"--pairs", true, "topology pairs to run (default 2, --full = 4)"},
        {"--skywalks", true,
         "SkyWalk instantiations averaged (default 5, paper 20)"}}});
  const std::size_t npairs =
      opts.full() ? 4 : std::min<std::size_t>(opts.flags().get("--pairs", 2), 4);
  const int skywalks =
      opts.flags().get<int>("--skywalks", opts.full() ? 20 : 5);

  struct Pair {
    topo::LpsParams lps;
    topo::SlimFlyParams sf;
  };
  const Pair pairs[] = {{{11, 7}, {9}}, {{19, 7}, {13}}, {{23, 11}, {17}},
                        {{29, 13}, {23}}};

  // One kLayout scenario per subject, pair-major (LPS side 0, SF side 1).
  // NOTE: the seed version used seed 17 for the QAP layout but seed 5 for
  // the bisection; the engine derives both from one scenario seed (17), so
  // the Bisection / Power W / mW/Gbps columns shift slightly from pre-port
  // output (e.g. LPS(11,7) cut 296 -> 288) — same restart budget, valid cut.
  std::vector<engine::TopologySpec> specs;
  for (std::size_t i = 0; i < npairs; ++i) {
    specs.push_back({pairs[i].lps.name(),
                     [p = pairs[i].lps] { return topo::lps_graph(p); }});
    specs.push_back({pairs[i].sf.name(),
                     [p = pairs[i].sf] { return topo::slimfly_graph(p); }});
  }

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "table2_layout");
  engine::CampaignBuilder grid;
  grid.proto().kind = engine::Kind::kLayout;
  grid.proto().layout_em_rounds = 4;
  grid.proto().layout_swap_passes = 4;
  grid.proto().bisection_restarts = 3;  // powers the mW/Gbps efficiency column
  grid.proto().seed = opts.seed_or(17);
  grid.topologies(std::move(specs));
  auto& phase = camp.analytic("layouts", std::move(grid));
  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);
  const auto& results = phase.results();

  Table t({"Topology", "Routers", "Radix", "Avg wire m (SkyWalk)",
           "Max wire m (SkyWalk)", "Elec.", "Opt.", "Bisection",
           "Power W", "mW/Gbps"});
  for (std::size_t i = 0; i < npairs; ++i) {
    for (int side = 0; side < 2; ++side) {
      const auto& r = results[2 * i + side];
      if (!r.ok) {
        t.add_row({r.topology, "ERR: " + r.error});
        continue;
      }
      // SkyWalk comparators share the machine room and radix (LPS rows).
      double sky_mean = 0, sky_max = 0;
      if (side == 0) {
        for (int s = 0; s < skywalks; ++s) {
          auto sky = topo::skywalk_graph({r.vertices, r.radix,
                                          static_cast<std::uint64_t>(s) + 1, 1.0});
          auto stats = layout::wiring_stats(sky.graph, sky.placement);
          sky_mean += stats.mean_wire_m;
          sky_max = std::max(sky_max, stats.max_wire_m);
        }
        sky_mean /= skywalks;
      }
      t.add_row({r.topology, std::to_string(r.vertices),
                 std::to_string(r.radix),
                 Table::num(r.mean_wire_m, 2) +
                     (sky_mean > 0 ? " (" + Table::num(sky_mean, 2) + ")" : ""),
                 Table::num(r.max_wire_m, 1) +
                     (sky_max > 0 ? " (" + Table::num(sky_max, 1) + ")" : ""),
                 std::to_string(r.wires_electrical),
                 std::to_string(r.wires_optical),
                 Table::num(r.bisection, 0), Table::num(r.power_watts, 0),
                 Table::num(r.mw_per_gbps, 1)});
    }
    if (i + 1 < npairs) t.add_row({"---"});
  }
  t.print();
  std::printf(
      "\n# Paper shape: LPS and SF wire lengths within ~10%% of each other;\n"
      "# SkyWalk needs ~20-30%% longer average wires; LPS(29,13) ~15%% more\n"
      "# power-efficient per unit bisection bandwidth than SF(23).\n"
      "# (Absolute watts differ from Table II — the paper's per-link power\n"
      "# accounting is not fully specified; see EXPERIMENTS.md.)\n");
  return 0;
}
