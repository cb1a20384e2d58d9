// Fig. 4 (lower-right) — raw bisection bandwidth comparison across the
// four families at the Table I size classes.  For each instance we print
// the METIS-substitute upper bound (multilevel min-cut) and the spectral
// (Fiedler) lower bound; the exact value lies between them.
//
// Campaign-backed: a class-major topology axis crossed with a
// (structure, spectral) kind axis — cut only, the O(n*m) all-pairs
// distances are skipped — submitted as a single batch over --threads
// with the graph built once for both kinds.

#include "bench_common.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Fig. 4 lower-right: raw bisection bandwidth (upper bound = multilevel "
       "cut, lower bound = Fiedler)",
       "#   --classes N  size classes to run (default 3, --full = 5)\n"
       "#   --threads N  engine worker threads (default: all hardware threads)",
       {{"--classes", true, "size classes to run (default 3, --full = 5)"}}});
  const std::size_t nclasses =
      opts.full() ? 5 : opts.flags().get<std::size_t>("--classes", 3);

  const std::size_t run_classes =
      std::min(nclasses, topo::table1_classes().size());

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "fig4_bisection");
  auto& phase = camp.analytic(
      "classes", bench::class_grid(run_classes,
                                   [seed = opts.seed_or(11)](engine::Scenario& st) {
                                     st.want_distances = false;  // cut only
                                     st.bisection_restarts = 3;
                                     st.seed = seed;
                                   }));
  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);
  const auto& results = phase.results();

  Table t({"Topology", "Routers", "Radix", "Cut (links)", "Fiedler LB",
           "Normalized"});
  for (std::size_t c = 0; c < run_classes; ++c) {
    for (std::size_t i = 0; i < 4; ++i) {
      const auto& st = results[(c * 4 + i) * 2];
      const auto& sp = results[(c * 4 + i) * 2 + 1];
      if (!st.ok || !sp.ok) {
        t.add_row({st.topology, "ERR: " + (st.ok ? sp.error : st.error)});
        continue;
      }
      t.add_row({st.topology, std::to_string(st.vertices),
                 std::to_string(st.radix), Table::num(st.bisection, 0),
                 Table::num(sp.fiedler_bisection_lb, 0),
                 Table::num(st.normalized_bisection, 3)});
    }
    if (c + 1 < run_classes) t.add_row({"---"});
  }
  t.print();
  std::printf(
      "\n# Paper shape: LPS normalized BW stays ~0.33+ and exceeds SlimFly's\n"
      "# asymptotic 1/3 (gap widens with size, up to ~39%%); DragonFly decays.\n");
  return 0;
}
