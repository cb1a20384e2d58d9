#pragma once
// Shared helpers for the per-figure/per-table benchmark harnesses, built
// on the engine's declarative campaign layer: benches declare sweep axes
// (engine/campaign.hpp), parse one shared option surface
// (util/options.hpp: --threads/--full/--seed/--csv/--json/--phase-json/
// --dry-run/--help plus bench-specific flags), and stream
// results through sinks — no bench hand-rolls a sweep loop or a flag
// parser.
//
// Every bench defaults to a reduced-scale preset that reproduces the
// paper's qualitative shape in minutes; pass --full for the exact paper
// configuration.

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/engine.hpp"
#include "engine/sink.hpp"
#include "sim/traffic.hpp"
#include "topo/bundlefly.hpp"
#include "topo/dragonfly.hpp"
#include "topo/factory.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace sfly::bench {

// ---------------------------------------------------------------------
// The four simulation-scale topologies of Section VI-B, as topology-axis
// values: nothing is built here; the artifact cache builds each graph at
// most once, when a campaign first needs it.

inline std::vector<engine::TopologySpec> simulation_topologies(bool full) {
  using topo::BundleShift;
  if (full)  // paper configuration: ~8.7k endpoints, 32-port routers
    return {
        {"SpectralFly", [] { return topo::lps_graph({23, 13}); }},         // 1092 r
        {"DragonFly", [] { return topo::dragonfly_graph({16, 8, 69}); }},  // 1104 r
        {"SlimFly", [] { return topo::slimfly_graph({27}); }},             // 1458 r
        {"BundleFly",
         [] { return topo::bundlefly_graph({9, 9, BundleShift::kAffine}); }, 6},
    };
  // Reduced preset (~1.3k endpoints) with the same relative shapes.
  return {
      {"SpectralFly", [] { return topo::lps_graph({11, 7}); }},          // 168 r
      {"DragonFly", [] { return topo::dragonfly_graph({8, 4, 21}); }},   // 168 r
      {"SlimFly", [] { return topo::slimfly_graph({9}); }},              // 162 r
      {"BundleFly",
       [] { return topo::bundlefly_graph({13, 3, BundleShift::kOptimized}); }, 6},
  };
}

inline const double kLoads[] = {0.1, 0.2, 0.3, 0.5, 0.6, 0.7};

inline std::vector<double> load_points() {
  return {std::begin(kLoads), std::end(kLoads)};
}

// ---------------------------------------------------------------------
// Campaign orchestration shared by every bench.

/// How a campaign invocation ended.  Only kDone leaves complete result
/// vectors behind — a bench prints its report tables only then.
enum class RunStatus {
  kDryRun,    ///< --dry-run: plan printed, nothing evaluated
  kDone,      ///< every scenario ran (or replayed); report away
  kSharded,   ///< this shard's slice ran; the merged journal is the output
  kStopped,   ///< --max-seconds fired; journal resumable, exit 75
};

/// Process exit code for a non-kDone status: 75 (EX_TEMPFAIL — try
/// again, i.e. `--resume`) for a budget stop, 0 otherwise.
[[nodiscard]] inline int exit_code(RunStatus st) {
  return st == RunStatus::kStopped ? 75 : 0;
}

/// One row of the --phase-json record.
struct PhaseStat {
  std::string name;
  std::size_t scenarios = 0;
  engine::RunTally tally;
};

/// Write a run record to `path`: `fill(fields)` writes the top-level
/// keys, one per line (JsonFields lays out the rest).  An unopenable path
/// exits 1; a failed write or close exits 74 naming `what`.
template <class Fill>
void write_record(const std::string& path, const char* what, const Fill& fill) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::string out = "{\n  ";
  JsonFields fields{out, ",\n  "};
  fill(fields);
  engine::checked_write(f, what, out.append("\n}\n"));
  engine::checked_close(f, what);
}

/// Write the `--phase-json` run record (docs/CAMPAIGNS.md's key table;
/// BENCH_full.json holds the paper-scale ones): campaign identity and
/// accounting, the phases' summed RunTally, each topology's artifact
/// footprint, peak RSS and one entry per phase.  `threads` is `eng`'s
/// pool width.  A `--workers` parent evaluates nothing itself: its
/// `eval_s` includes feeding the fleet, its per-kind counts are zero and
/// its footprints count only what it built.
inline void write_phase_record(const std::string& path,
                               const std::string& campaign,
                               const StandardOptions& opts,
                               const engine::RunControl& ctl,
                               const std::vector<PhaseStat>& phases,
                               const engine::Engine& eng) {
  engine::RunTally sum;
  std::size_t total = 0;
  for (const auto& ph : phases) {
    add_fields(sum, ph.tally);
    total += ph.scenarios;
  }
  const auto names = eng.artifacts().names();
  std::size_t artifact_bytes = 0;
  write_record(path, "--phase-json record", [&](JsonFields& put) {
    put("campaign", campaign);
    put("nproc", static_cast<unsigned>(hardware_threads()));
    put("threads", eng.pool().width());
    put("workers", opts.workers());
    put("full", opts.full());
    put("shard", std::array{ctl.shard_index, ctl.shard_count});
    put("scenarios_total", total);
    put("replayed", ctl.replayed);
    put("evaluated", ctl.evaluated);
    put("stopped", ctl.stopped);
    put_fields(put, sum);
    put.objects("artifacts", names.size(), [&](std::size_t i, JsonFields& entry) {
      const auto fp = eng.artifacts().get(names[i])->footprint();
      artifact_bytes += fp.total();
      entry("name", names[i]);
      put_fields(entry, fp);
    });
    put("artifact_bytes", artifact_bytes);
    put("peak_rss_mb", peak_rss_mb());
    put.objects("phases", phases.size(), [&](std::size_t i, JsonFields& entry) {
      entry("name", phases[i].name);
      entry("scenarios", phases[i].scenarios);
      entry(engine::RunTally::kEvalKey, phases[i].tally.eval_seconds);
    });
  });
}

/// The shared post-run epilogue for Campaign and AdaptiveSweep paths:
/// replay notice, budget-stop message (returns kStopped), and — on
/// completion — the unconsumed-journal hard error (a resume whose early
/// batches coincided with a different-flags journal must never exit 0
/// over a franken-journal).  `replayed_before` carries the RunControl's
/// replay count from before this run for multi-sweep benches.
inline RunStatus finish_run(const engine::RunControl& ctl, bool final_run,
                            std::size_t replayed_before = 0) {
  // ctl.quiet (a --worker-fd / --connect worker): the parent owns stderr
  // reporting for the whole fleet; the status classification still
  // applies.
  if (!ctl.quiet && ctl.replayed > replayed_before)
    std::fprintf(stderr, "# resume: replayed %zu journaled scenario(s), "
                         "evaluated %zu\n",
                 ctl.replayed - replayed_before, ctl.evaluated);
  if (ctl.stopped) {
    if (!ctl.quiet) {
      if (const int sig = engine::stop_signal_seen(); sig != 0)
        std::fprintf(stderr, "# stopping on %s: sinks flushed at a row "
                             "boundary; journal is resumable with --resume "
                             "(exit 75)\n",
                     sig == SIGINT ? "SIGINT" : "SIGTERM");
      else
        std::fprintf(stderr, "# --max-seconds budget reached: journal is "
                             "resumable with --resume (exit 75)\n");
    }
    return RunStatus::kStopped;
  }
  if (final_run && ctl.unconsumed_segments() > 0) {
    std::fprintf(stderr,
                 "error: resume journal holds %zu batch segment(s) this run "
                 "never declared — it was written under different flags, and "
                 "fresh rows have been appended after the stale tail; delete "
                 "the journal or rerun with the original flags\n",
                 ctl.unconsumed_segments());
    std::exit(2);
  }
  return RunStatus::kDone;
}

/// Execute a declared campaign under the options' RunControl (resume /
/// shard / wall-clock budget) with the options' sinks, then write the
/// --phase-json record when asked (on a budget stop too).  No --dry-run
/// handling — benches that print between plan and run call this
/// directly; everyone else goes through run_campaign().
inline RunStatus execute_campaign(engine::Campaign& camp,
                                  StandardOptions& opts) {
  const auto& sinks = opts.sinks();
  engine::RunControl& ctl = opts.run_control();
  try {
    camp.run(sinks, ctl);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
  if (const auto path = opts.phase_json_path(); !path.empty()) {
    std::vector<PhaseStat> stats;
    for (const auto& ph : camp.phases())
      stats.push_back({ph->name(), ph->size(), ph->tally()});
    write_phase_record(path, camp.name(), opts, ctl, stats, camp.engine());
  }
  const RunStatus st = finish_run(ctl, /*final_run=*/true);
  if (st == RunStatus::kDone && opts.shard().second > 1)
    return RunStatus::kSharded;
  return st;
}

/// The standard campaign tail: print the plan and stop under --dry-run;
/// otherwise execute under the options' RunControl.
inline RunStatus run_campaign(engine::Campaign& camp, StandardOptions& opts) {
  if (opts.dry_run()) {
    camp.print_plan();
    return RunStatus::kDryRun;
  }
  return execute_campaign(camp, opts);
}

/// Table I's four families for the first `run_classes` size classes as a
/// campaign grid: a topology axis in class-major, LPS/SlimFly/BundleFly/
/// DragonFly order crossed with a (structure, spectral) kind axis — batch
/// index (class*4 + family)*2 for the structure half, +1 for spectral.
/// `structure_knobs` customizes the kStructure scenarios (girth vs
/// cut-only, restarts, seed).
inline engine::CampaignBuilder class_grid(
    std::size_t run_classes,
    std::function<void(engine::Scenario&)> structure_knobs) {
  auto classes = topo::table1_classes();
  run_classes = std::min(run_classes, classes.size());
  std::vector<engine::TopologySpec> specs;
  for (std::size_t c = 0; c < run_classes; ++c) {
    const auto& cls = classes[c];
    specs.push_back({cls.lps.name(), [p = cls.lps] { return topo::lps_graph(p); }});
    specs.push_back({cls.slimfly.name(),
                     [p = cls.slimfly] { return topo::slimfly_graph(p); }});
    specs.push_back({cls.bundlefly.name(),
                     [p = cls.bundlefly] { return topo::bundlefly_graph(p); }});
    specs.push_back({"DF(" + std::to_string(cls.dragonfly_a) + ")",
                     [a = cls.dragonfly_a] {
                       return topo::dragonfly_graph(
                           topo::DragonFlyParams::canonical(a));
                     }});
  }
  engine::CampaignBuilder grid;
  grid.topologies(std::move(specs))
      .kinds({engine::Kind::kStructure, engine::Kind::kSpectral})
      .each([knobs = std::move(structure_knobs)](engine::Scenario& s) {
        if (s.kind == engine::Kind::kStructure) knobs(s);
      });
  return grid;
}

/// The paper's speedup table for one pattern slice of a (pattern x load x
/// topology) phase: rows are offered loads; columns the non-baseline
/// topologies (speedup of max message time vs the baseline, index 1 =
/// DragonFly), then the baseline itself.
inline Table speedup_table(const engine::Phase& phase, std::size_t pattern_idx,
                           const std::vector<double>& loads,
                           const std::vector<engine::TopologySpec>& topos,
                           std::size_t baseline = 1) {
  std::vector<std::string> header{"Offered load"};
  for (std::size_t t = 0; t < topos.size(); ++t)
    if (t != baseline) header.push_back(topos[t].name);
  header.push_back(topos[baseline].name + " (baseline)");
  Table tab(std::move(header));
  for (std::size_t li = 0; li < loads.size(); ++li) {
    const auto& base = phase.sim_at({pattern_idx, li, baseline});
    std::vector<std::string> row{Table::num(loads[li], 1)};
    for (std::size_t t = 0; t < topos.size(); ++t) {
      if (t == baseline) continue;
      const auto& r = phase.sim_at({pattern_idx, li, t});
      row.push_back(base.ok && r.ok && r.max_latency_ns > 0
                        ? Table::num(base.max_latency_ns / r.max_latency_ns, 2)
                        : "ERR");
    }
    row.push_back(base.ok ? "1.00" : "ERR");
    tab.add_row(std::move(row));
  }
  return tab;
}

}  // namespace sfly::bench
