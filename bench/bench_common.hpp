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
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// Write the per-run record (the BENCH_full.json per-bench format):
/// campaign identity, worker count, shard/resume accounting, artifact
/// pre-build and evaluation time, the simulator work this run evaluated
/// (journal-replayed rows excluded) with its events/sec and messages/sec,
/// the events split by kind, the retries and credit returns among them
/// that forwarded nothing (`noops_by_kind`), each topology's artifact
/// footprint, the process's peak RSS so far, and one entry per phase;
/// `threads` is `eng`'s pool width.  Used by `--phase-json`; committed as
/// BENCH_full.json for the paper-scale `--full` runs, and CI's perf smoke
/// reads its `messages_per_sec`.
/// Under `--workers` the parent evaluates nothing itself: its `eval_s`
/// includes spawning and feeding the fleet, so a fleet's rate is not
/// comparable with a single-process one, its per-kind counts are zero,
/// and its footprints count only what the parent itself built.
inline void write_phase_record(const std::string& path,
                               const std::string& campaign,
                               const StandardOptions& opts,
                               const engine::RunControl& ctl,
                               const std::vector<PhaseStat>& phases,
                               const engine::Engine& eng) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  engine::RunTally sum;
  std::size_t total = 0;
  for (const auto& ph : phases) {
    sum.build_seconds += ph.tally.build_seconds;
    sum.eval_seconds += ph.tally.eval_seconds;
    sum.events += ph.tally.events;
    sum.packets += ph.tally.packets;
    sum.messages += ph.tally.messages;
    for (std::size_t k = 0; k < sim::kEventKinds; ++k) {
      sum.events_by_kind[k] += ph.tally.events_by_kind[k];
      sum.noops_by_kind[k] += ph.tally.noops_by_kind[k];
    }
    total += ph.scenarios;
  }
  const auto per_sec = [&](std::uint64_t n) {
    return sum.eval_seconds > 0 ? static_cast<double>(n) / sum.eval_seconds : 0.0;
  };
  std::fprintf(f,
               "{\n"
               "  \"campaign\": \"%s\",\n"
               "  \"nproc\": %d,\n"
               "  \"threads\": %u,\n"
               "  \"workers\": %zu,\n"
               "  \"full\": %s,\n"
               "  \"shard\": [%zu, %zu],\n"
               "  \"scenarios_total\": %zu,\n"
               "  \"replayed\": %zu,\n"
               "  \"evaluated\": %zu,\n"
               "  \"stopped\": %s,\n"
               "  \"artifact_build_s\": %.3f,\n"
               "  \"eval_s\": %.3f,\n"
               "  \"wall_s\": %.3f,\n"
               "  \"events\": %llu,\n"
               "  \"packets_forwarded\": %llu,\n"
               "  \"messages\": %llu,\n"
               "  \"events_per_sec\": %.1f,\n"
               "  \"messages_per_sec\": %.1f,\n"
               "  \"events_by_kind\": {",
               campaign.c_str(), hardware_threads(),
               eng.pool().width(), opts.workers(),
               opts.full() ? "true" : "false",
               ctl.shard_index, ctl.shard_count, total, ctl.replayed,
               ctl.evaluated, ctl.stopped ? "true" : "false",
               sum.build_seconds, sum.eval_seconds,
               sum.build_seconds + sum.eval_seconds,
               static_cast<unsigned long long>(sum.events),
               static_cast<unsigned long long>(sum.packets),
               static_cast<unsigned long long>(sum.messages), per_sec(sum.events),
               per_sec(sum.messages));
  static constexpr const char* kKindNames[sim::kEventKinds] = {
      "inject_message", "arrival",  "try_transmit", "credit_return", "deliver",
      "link_down",      "link_up",  "router_down",  "router_up"};
  for (std::size_t k = 0; k < sim::kEventKinds; ++k)
    std::fprintf(f, "%s\"%s\": %llu", k ? ", " : "", kKindNames[k],
                 static_cast<unsigned long long>(sum.events_by_kind[k]));
  // The retries and credit returns that forwarded no packet.
  const auto noops = [&](sim::EventKind k) {
    return static_cast<unsigned long long>(sum.noops_by_kind[static_cast<std::size_t>(k)]);
  };
  std::fprintf(f,
               "},\n  \"noops_by_kind\": {\"try_transmit\": %llu, "
               "\"credit_return\": %llu},\n  \"artifacts\": [",
               noops(sim::EventKind::kTryTransmit), noops(sim::EventKind::kCreditReturn));
  // Bytes per materialized component (zero for one never built).
  const auto names = eng.artifacts().names();
  std::size_t artifact_bytes = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto fp = eng.artifacts().get(names[i])->footprint();
    artifact_bytes += fp.total();
    std::fprintf(f, "%s\n    {\"name\": %s, \"graph_bytes\": %zu, "
                    "\"tables_bytes\": %zu, \"next_hops_bytes\": %zu, "
                    "\"spectra_bytes\": %zu, \"cells_bytes\": %zu, "
                    "\"total_bytes\": %zu}",
                 i ? "," : "", json_quote(names[i]).c_str(), fp.graph_bytes,
                 fp.tables_bytes, fp.next_hops_bytes, fp.spectra_bytes,
                 fp.cells_bytes, fp.total());
  }
  std::fprintf(f, "%s],\n  \"artifact_bytes\": %zu,\n  \"peak_rss_mb\": %.1f,\n"
                  "  \"phases\": [",
               names.empty() ? "" : "\n  ", artifact_bytes, peak_rss_mb());
  for (std::size_t i = 0; i < phases.size(); ++i)
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"scenarios\": %zu, "
                    "\"eval_s\": %.3f}",
                 i ? "," : "", phases[i].name.c_str(), phases[i].scenarios,
                 phases[i].tally.eval_seconds);
  if (std::fprintf(f, "\n  ]\n}\n") < 0) {
    std::fprintf(stderr, "error: writing %s failed: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(engine::kExitIoError);
  }
  engine::checked_close(f, "--phase-json record");
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
