// Table I — basic structural properties of the five size classes:
// routers, radix, diameter, mean distance, girth, and the normalized
// Laplacian spectral gap mu1 for LPS / SlimFly / BundleFly / DragonFly.
//
// Campaign-backed: a class-major topology axis crossed with a
// (structure, spectral) kind axis (distances + girth, bisection skipped
// — Table I does not report a cut), one batch fanned over --threads;
// the artifact cache builds each graph once for both kinds.

#include "bench_common.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Table I: structural properties per size class",
       "#   --classes N  number of size classes to run (default 3, --full = 5)\n"
       "#   --threads N  engine worker threads (default: all hardware threads)",
       {{"--classes", true,
         "number of size classes to run (default 3, --full = 5)"}}});
  const std::size_t nclasses =
      opts.full() ? 5 : opts.flags().get<std::size_t>("--classes", 3);

  const std::size_t run_classes =
      std::min(nclasses, topo::table1_classes().size());

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "table1");
  // Per topology: a kStructure scenario (even batch index) immediately
  // followed by its kSpectral partner (odd index).
  auto& phase =
      camp.analytic("classes", bench::class_grid(run_classes,
                                                 [](engine::Scenario& st) {
                                                   st.bisection_restarts = 0;
                                                   st.want_girth = true;
                                                 }));
  if (const auto st = bench::run_campaign(camp, opts);
      st != bench::RunStatus::kDone)
    return bench::exit_code(st);
  const auto& results = phase.results();

  Table table({"Topology", "Routers", "Radix", "Diam.", "Dist.", "Girth",
               "mu1", "Ramanujan"});
  for (std::size_t c = 0; c < run_classes; ++c) {
    for (std::size_t i = 0; i < 4; ++i) {
      const auto& st = results[(c * 4 + i) * 2];
      const auto& sp = results[(c * 4 + i) * 2 + 1];
      if (!st.ok || !sp.ok) {
        table.add_row({st.topology, "ERR: " + (st.ok ? sp.error : st.error)});
        continue;
      }
      table.add_row({st.topology, std::to_string(st.vertices),
                     std::to_string(st.radix), Table::num(st.diameter, 0),
                     Table::num(st.mean_hops, 2), std::to_string(st.girth),
                     Table::num(sp.mu1, 2), sp.ramanujan ? "yes" : "no"});
    }
    if (c + 1 < run_classes) table.add_row({"---"});
  }
  table.print();
  std::printf(
      "\n# Paper anchors: LPS diam 3,3,3,4,4; girth 3,3,3,4,4; SF diam 2;\n"
      "# LPS mu1 0.50..0.80 rising with radix; DF mu1 decaying to ~0.01.\n");
  return 0;
}
