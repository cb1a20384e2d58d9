// Fig. 5 — structural properties under random link failures: diameter,
// mean hop count, and bisection bandwidth vs the fraction of deleted
// edges, for comparable ~600-router (and, with --full, ~5-7K-router)
// instances of the four families.
//
// Campaign-backed via engine::AdaptiveSweep: the bench declares the
// (topology x failure-fraction) point grid; the engine schedules trials
// in waves of growing size (10, then up to 100, up to 1000, ...), fans
// every wave across the task pool, and applies the paper's batch/CoV
// stopping rule (footnote 1) between waves — a point stops contributing
// trials as soon as some prefix of 10-trial batches has batch-mean CoV
// < 10%, so converged points recover the seed version's early-stop
// economy while unconverged points keep the engine's parallelism
// (crucial at --full scale, 100+ trials/point).  Trial seeds depend only
// on the trial number, never on the wave split, so the output is
// bitwise-identical at any --threads and to the precompute-everything
// schedule.

#include "bench_common.hpp"

using namespace sfly;

namespace {

bench::RunStatus sweep(engine::Engine& eng, bench::StandardOptions& opts,
                       const char* name,
                       const std::vector<engine::TopologySpec>& subjects,
                       const std::vector<double>& fractions,
                       std::uint64_t max_trials, bench::PhaseStat& stat) {
  engine::CampaignBuilder points;
  points.proto().kind = engine::Kind::kStructure;
  points.proto().bisection_restarts = 2;
  points.topologies(subjects).failure_fractions(fractions);

  // Trial seeds are derived from the same (9177, trial) base as the
  // pre-engine bench, but the engine re-splits per component (failure
  // sampling, bisection), so per-trial numbers differ from the old
  // output; only the statistics are comparable.
  engine::AdaptiveSweep::Config cfg;
  cfg.name = name;  // the journal identity of this size class's waves
  cfg.max_trials = max_trials;
  cfg.seed_base = opts.seed_or(9177);
  engine::AdaptiveSweep sweep(eng, std::move(points), cfg);
  if (opts.dry_run()) {
    sweep.print_plan();
    return bench::RunStatus::kDryRun;
  }
  engine::RunControl& ctl = opts.run_control();
  const std::size_t replayed_before = ctl.replayed;
  try {
    sweep.run(opts.sinks(), ctl);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
  std::size_t trials = 0;
  for (const auto& p : sweep.points()) trials += p.scheduled;
  stat = {name, trials, sweep.tally()};
  // Shared stop/replay epilogue; the unconsumed-journal check runs once
  // in main after the last sweep, not per size class.
  if (bench::finish_run(ctl, /*final_run=*/false, replayed_before) ==
      bench::RunStatus::kStopped)
    return bench::RunStatus::kStopped;

  Table t({"Topology", "Fail frac", "Diameter", "Mean hops", "Bisection BW",
           "Trials"});
  std::size_t at = 0;
  for (const auto& s : subjects) {
    for (double f : fractions) {
      const auto& p = sweep.points()[at];
      const std::size_t use = sweep.converged_prefix(at);
      ++at;
      if (use == 0) {
        t.add_row({s.name, Table::num(f, 2), "disconnected", "-", "-",
                   std::to_string(p.scheduled)});
        continue;
      }
      double diameter_sum = 0, hops_sum = 0, cut_sum = 0;
      for (std::size_t i = 0; i < use; ++i) {
        diameter_sum += p.kept[i].diameter;
        hops_sum += p.kept[i].mean_hops;
        cut_sum += p.kept[i].bisection;
      }
      t.add_row({s.name, Table::num(f, 2),
                 Table::num(diameter_sum / static_cast<double>(use), 2),
                 Table::num(hops_sum / static_cast<double>(use), 2),
                 Table::num(cut_sum / static_cast<double>(use), 0),
                 std::to_string(use)});
    }
    t.add_row({"---"});
  }
  t.print();
  return bench::RunStatus::kDone;
}

}  // namespace

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Fig. 5: diameter / mean hops / bisection under random edge failures",
       "#   --trials N   trials per point (default 10)\n"
       "#   --threads N  engine worker threads (default: all hardware threads)\n"
       "#   --workers N  distribute trials across N worker processes\n"
       "#   --full       also run the ~5-7K-router class with more trials",
       {{"--trials", true, "trials per point (default 10; --full = 100)"}}});
  const std::uint64_t max_trials = std::max<std::uint64_t>(
      1, opts.flags().get("--trials", opts.full() ? 100 : 10));
  if (opts.shard().second > 1) {
    std::fprintf(stderr,
                 "error: --shard is not supported here: adaptive trial "
                 "scheduling needs every point's results — use --workers N, "
                 "which replicates the wave schedule in every process\n");
    return 2;
  }

  engine::Engine eng(opts.engine_config());
  std::vector<bench::PhaseStat> stats(1);

  std::printf("== ~600-router class ==\n");
  const std::vector<engine::TopologySpec> small = {
      {"LPS(23,11)", [] { return topo::lps_graph({23, 11}); }},
      {"SlimFly(17)", [] { return topo::slimfly_graph({17}); }},
      {"BundleFly(37,3)",
       [] { return topo::bundlefly_graph({37, 3, topo::BundleShift::kAffine}); }},
      {"DragonFly(24)",
       [] { return topo::dragonfly_graph(topo::DragonFlyParams::canonical(24)); }}};
  // Written on completion AND on a budget stop (with stopped:true), so
  // tooling sees the same --phase-json behavior as campaign benches.
  auto record = [&] {
    if (const auto path = opts.phase_json_path();
        !path.empty() && !opts.dry_run())
      bench::write_phase_record(path, "fig5_failures", opts,
                                opts.run_control(), stats, eng);
  };
  if (const auto st = sweep(eng, opts, "fig5_small", small,
                            {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}, max_trials,
                            stats[0]);
      st == bench::RunStatus::kStopped) {
    record();
    return bench::exit_code(st);
  }
  if (!opts.dry_run())
    std::printf(
        "\n# Paper shape: SlimFly's diameter-2 is fragile (jumps to 4 at 10%%\n"
        "# failures, briefly worse than LPS); SlimFly keeps the lowest mean\n"
        "# hops, LPS keeps the highest bisection; BF/DF degrade faster.\n");

  if (opts.full()) {
    std::printf("\n== ~5-7K-router class ==\n");
    const std::vector<engine::TopologySpec> large = {
        {"LPS(71,17)", [] { return topo::lps_graph({71, 17}); }},
        {"SlimFly(47)", [] { return topo::slimfly_graph({47}); }},
        {"BundleFly(137,4)",
         [] { return topo::bundlefly_graph({137, 4, topo::BundleShift::kAffine}); }},
        {"DragonFly(69)",
         [] { return topo::dragonfly_graph(topo::DragonFlyParams::canonical(69)); }}};
    stats.emplace_back();
    if (const auto st = sweep(eng, opts, "fig5_full", large,
                              {0.0, 0.2, 0.4, 0.6, 0.8}, max_trials,
                              stats.back());
        st == bench::RunStatus::kStopped) {
      record();
      return bench::exit_code(st);
    }
  }
  record();
  if (!opts.dry_run())  // completed: a journal tail we never declared is fatal
    (void)bench::finish_run(opts.run_control(), /*final_run=*/true,
                            opts.run_control().replayed);
  return 0;
}
