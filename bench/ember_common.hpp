#pragma once
// Shared driver for the Ember-motif benches (Fig. 9 minimal / Fig. 10 UGAL).
//
// Campaign-backed: the bench declares a (motif x topology) grid whose
// motif axis carries factories (motifs are stateful, so every evaluation
// builds a fresh instance); the engine expands it into one batch fanned
// across --threads workers while each topology's all-pairs routing
// tables are built once in the shared artifact cache.

#include <memory>

#include "bench_common.hpp"
#include "sim/motifs.hpp"

namespace sfly::bench {

inline std::unique_ptr<sim::Motif> make_motif(int which, bool full) {
  switch (which) {
    case 0:  // Halo3D-26
      return full ? std::make_unique<sim::Halo3D26>(16, 16, 32, 4)
                  : std::make_unique<sim::Halo3D26>(8, 8, 8, 3);
    case 1:  // Sweep3D
      return full ? std::make_unique<sim::Sweep3D>(64, 128, 8)
                  : std::make_unique<sim::Sweep3D>(16, 32, 8);
    case 2:  // FFT balanced (square decomposition)
      return full ? std::make_unique<sim::FftAllToAll>(90, 90, 2048)
                  : std::make_unique<sim::FftAllToAll>(22, 22, 2048);
    default:  // FFT unbalanced (skewed decomposition, larger all-to-alls)
      return full ? std::make_unique<sim::FftAllToAll>(512, 16, 2048)
                  : std::make_unique<sim::FftAllToAll>(121, 4, 2048);
  }
}

inline std::vector<engine::MotifSpec> motif_specs(bool full) {
  std::vector<engine::MotifSpec> out;
  for (int which = 0; which < 4; ++which)
    out.push_back({make_motif(which, full)->name(),
                   [which, full] { return make_motif(which, full); }});
  return out;
}

/// Shared Ember driver; `epilogue` (the per-figure paper-shape note) is
/// printed only after a real run, never under --dry-run.
inline int run_ember(int argc, char** argv, routing::Algo algo, const char* what,
                     const char* epilogue) {
  StandardOptions opts(
      argc, argv,
      {what,
       "#   (motif sizes scale with --full: 8192-rank grids)\n"
       "#   --threads N  engine worker threads (default: all hardware threads)",
       {}});
  const bool full = opts.full();

  engine::Engine eng(opts.engine_config());
  engine::Campaign camp(eng, "ember_motifs");
  // Motif-major, topology-minor: 4 motifs x 4 topologies in one batch.
  engine::CampaignBuilder grid;
  grid.motifs(motif_specs(full))
      .topologies(simulation_topologies(full))
      .each([&, seed = opts.seed_or(42)](engine::Scenario& s) {
        s.algo = algo;
        s.seed = seed;
      });
  auto& sweep = camp.sims("motifs", std::move(grid));
  if (const auto st = run_campaign(camp, opts); st != RunStatus::kDone)
    return exit_code(st);

  Table t({"Motif", "Ranks", "SpectralFly", "SlimFly", "BundleFly",
           "DragonFly (baseline)"});
  for (std::size_t which = 0; which < 4; ++which) {
    auto motif = make_motif(static_cast<int>(which), full);  // metadata only
    const auto& base = sweep.sim_at({which, 1});  // DragonFly is index 1
    auto speedup = [&](std::size_t i) {
      const auto& r = sweep.sim_at({which, i});
      return r.ok && base.ok && r.completion_ns > 0
                 ? Table::num(base.completion_ns / r.completion_ns, 2)
                 : std::string("ERR");
    };
    t.add_row({motif->name(), std::to_string(motif->num_ranks()), speedup(0),
               speedup(2), speedup(3), base.ok ? "1.00" : "ERR"});
  }
  t.print();
  std::printf("%s", epilogue);
  return 0;
}

}  // namespace sfly::bench
