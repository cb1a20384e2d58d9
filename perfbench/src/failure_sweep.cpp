// failure_sweep: a static link-failure sweep shaped like Fig. 5 —
// topology x failure fraction, Kind::kStructure with distance stats and
// bisection restarts, over the ~600-router class plus one ~5k-router LPS.
// Every point gets a fixed trial count (not AdaptiveSweep, whose stopping
// rule would make the work seed-dependent).  graph's all-pairs BFS and
// partition's bisection do the work; no routing tables, no simulator.

#include <chrono>
#include <functional>

#include "campaign_pass.hpp"
#include "graph/failures.hpp"
#include "graph/metrics.hpp"
#include "partition/bisection.hpp"
#include "topo/bundlefly.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sfly::engine::Kind;
using sfly::engine::Result;
using sfly::engine::Scenario;

constexpr unsigned kWidth = 2;
// A round: 16 trials of the ~600-router class and 2 of the ~5k-router
// LPS.  The large trials are 11% of the items, so the tail percentile (p90
// over >= 100 items) falls inside the large group instead of among the
// noisy slowest small trials.
constexpr double kNominalRoundS = 1.67;
// Set-up is only the graph builds (~35 ms), so a run repeats it more often
// than the other workloads to get a steady median.
constexpr int kSetupReps = 21;
constexpr int kRestarts = 2;
// The engine's failure-sampler seed stream (engine.cpp kFailureStream);
// the traced pass and the connectivity check rebuild the same graph.
constexpr std::uint64_t kFailureStream = 0xFA11;

struct Topo {
  std::string name;
  std::function<sfly::Graph()> build;
  bool large = false;
};

std::vector<Topo> topologies(bool tiny) {
  namespace topo = sfly::topo;
  std::vector<Topo> t = {
      {"LPS(23,11)", [] { return topo::lps_graph({23, 11}); }},
      {"SlimFly(17)", [] { return topo::slimfly_graph({17}); }},
  };
  if (tiny) return t;
  t.push_back({"BundleFly(37,3)", [] {
                 return topo::bundlefly_graph({37, 3, topo::BundleShift::kAffine});
               }});
  t.push_back({"DragonFly(24)", [] {
                 return topo::dragonfly_graph(topo::DragonFlyParams::canonical(24));
               }});
  t.push_back({"LPS(29,17)", [] { return topo::lps_graph({29, 17}); }, true});
  return t;
}

std::vector<Scenario> round_batch(const std::vector<Topo>& topos, bool tiny,
                                  std::uint64_t seed, std::uint64_t round) {
  std::vector<Scenario> batch;
  auto add = [&](const Topo& t, double fraction) {
    Scenario s;
    s.topology = t.name;
    s.kind = Kind::kStructure;
    s.bisection_restarts = kRestarts;
    s.failure_fraction = fraction;
    s.seed = sfly::split_seed(seed, round * 4096 + batch.size());
    batch.push_back(std::move(s));
  };
  const std::vector<double> fractions =
      tiny ? std::vector<double>{0.1, 0.3} : std::vector<double>{0.0, 0.1, 0.2, 0.3};
  for (const Topo& t : topos)
    if (!t.large)
      for (double f : fractions) add(t, f);
  for (const Topo& t : topos)
    if (t.large)
      for (double f : {0.3, 0.4}) add(t, f);
  return batch;
}

std::shared_ptr<const sfly::Graph> trial_graph(
    const std::shared_ptr<const sfly::Graph>& base, const Scenario& s) {
  if (s.failure_fraction <= 0.0) return base;
  return std::make_shared<const sfly::Graph>(sfly::delete_random_edges(
      *base, s.failure_fraction, sfly::split_seed(s.seed, kFailureStream)));
}

// Engine::evaluate's public steps for a kStructure scenario, under spans.
Result traced_eval(sfly::engine::Engine& eng, const Scenario& s, std::size_t index) {
  Scope item("engine.item", index);
  Result r;
  r.index = index;
  r.topology = s.topology;
  r.kind = s.kind;
  const auto t0 = std::chrono::steady_clock::now();
  const auto base = eng.artifacts().get(s.topology)->graph();
  std::shared_ptr<const sfly::Graph> g;
  {
    Scope fail("graph.failures", index);
    g = trial_graph(base, s);
  }
  r.vertices = g->num_vertices();
  r.radix = g->num_vertices() ? g->degree(0) : 0;
  {
    Scope dist("graph.distance_stats", index);
    const auto stats = sfly::distance_stats(*g);
    r.connected = stats.connected;
    if (stats.connected) {
      r.diameter = stats.diameter;
      r.mean_hops = stats.mean_distance;
    }
  }
  {
    Scope cut("partition.bisect", index);
    sfly::BisectionOptions b;
    b.restarts = s.bisection_restarts;
    b.seed = s.seed;
    const std::uint64_t edges = sfly::bisect(*g, b).cut_edges;
    r.bisection = static_cast<double>(edges);
    r.normalized_bisection = sfly::normalized_cut(*g, edges);
  }
  r.ok = true;
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

struct Setup {
  std::unique_ptr<sfly::engine::Engine> eng;
  double setup_s = 0;
};

Setup set_up(const std::vector<Topo>& topos) {
  Setup s;
  const double t0 = now_s();
  sfly::engine::EngineConfig cfg;
  cfg.threads = kWidth;
  s.eng = std::make_unique<sfly::engine::Engine>(cfg);
  for (const Topo& t : topos) {
    s.eng->register_topology(t.name, t.build);
    (void)s.eng->artifacts().get(t.name)->graph();  // the only artifact used
  }
  s.setup_s = now_s() - t0;
  return s;
}

// ok, and the connected flag agrees with an independent is_connected on
// the same failed graph.
bool row_ok(sfly::engine::Engine& eng, const Result& r, const Scenario& s) {
  if (!r.ok) return false;
  const auto g = trial_graph(eng.artifacts().get(s.topology)->graph(), s);
  return r.connected == sfly::is_connected(*g);
}

}  // namespace

Outcome run_failure_sweep(const Options& o) {
  Outcome out;
  const auto topos = topologies(o.tiny);
  const int rounds = rounds_for(o, kNominalRoundS);

  std::vector<double> setups;
  Setup st;
  for (int rep = 0; rep < (o.trace || o.tiny ? 1 : kSetupReps); ++rep) {
    st = Setup{};
    st = set_up(topos);
    setups.push_back(st.setup_s);
  }
  auto& eng = *st.eng;

  // Warm-up window, discarded: one small-topology trial per pool thread.
  {
    auto warm = round_batch(topos, o.tiny, o.seed, 1u << 20);
    warm.resize(kWidth);
    Pass p;
    std::vector<Result> rows;
    untraced_pass(eng, warm, p, rows);
  }

  EndToEnd e;
  e.setup_s = median(setups);
  Pass timed;
  std::vector<Result> rows;
  std::vector<Scenario> scenarios;
  const int timed_rounds = o.trace ? std::max(1, rounds / 2) : rounds;
  for (int r = 0; r < timed_rounds; ++r) {
    auto batch = round_batch(topos, o.tiny, o.seed, r);
    untraced_pass(eng, batch, timed, rows);
    scenarios.insert(scenarios.end(), batch.begin(), batch.end());
  }
  double eval_s = 0;
  std::size_t disconnected = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    e.latency_ms.push_back(rows[i].wall_ms);
    eval_s += rows[i].wall_ms * 1e-3;
    if (!rows[i].connected) ++disconnected;
    if (!row_ok(eng, rows[i], scenarios[i])) ++e.failed;
  }
  e.windows = timed.rounds;
  out.attempted = rows.size();
  out.failed = e.failed;
  out.check(e.failed == 0, "every trial ok and its connected flag equals is_connected");
  add_end_to_end(out, e);

  out.note("setup_reps", static_cast<double>(setups.size()));
  out.note("rounds", static_cast<double>(timed_rounds));
  out.note("trials_per_round", static_cast<double>(rows.size() / timed_rounds));
  out.note("disconnected_trials", static_cast<double>(disconnected));
  out.note("pool_width", static_cast<double>(kWidth));
  out.note("pool_idle_frac", 1.0 - eval_s / (kWidth * timed.wall_s));
  out.note("digest", quote(hex64(timed.digest)));

  if (!o.trace) return out;

  const UnitCosts u = measure_unit_costs();
  Tracer tracer;
  Tracer::install(&tracer);
  Pass traced;
  std::vector<Result> trows;
  const double tt0 = now_s();
  for (int r = 0; r < timed_rounds; ++r) {
    const auto batch = round_batch(topos, o.tiny, o.seed, r);
    traced_pass(kWidth, batch,
                [&](const Scenario& s, std::size_t i) { return traced_eval(eng, s, i); },
                traced, trows);
  }
  const double tt1 = now_s();
  Tracer::install(nullptr);
  out.check(traced.digest == timed.digest,
            "traced rows digest equals untraced rows digest");
  for (std::size_t i = 0; i < trows.size(); ++i)
    if (!row_ok(eng, trows[i], scenarios[i])) ++out.failed;
  out.attempted += trows.size();
  tracer.write_chrome(o.work_dir + "/trace-failure_sweep.json");

  const auto layers = tracer.layers(tt0, tt1);
  print_attribution("failure_sweep traced pass", layers, kWidth * traced.wall_s);
  auto total = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_s;
  };
  const double items = static_cast<double>(trows.size());
  report_unit_costs(out, u);
  set_layer(out, "graph.failures_ms_per_trial", total("graph.failures") * 1e3 / items);
  set_layer(out, "graph.distance_stats_ms_per_trial",
            total("graph.distance_stats") * 1e3 / items);
  set_layer(out, "partition.bisect_ms_per_trial", total("partition.bisect") * 1e3 / items);
  double bytes = 0;
  for (const Topo& t : topos)
    bytes += static_cast<double>(eng.artifacts().get(t.name)->footprint().total());
  set_layer(out, "routing.artifact_mb", bytes / (1024.0 * 1024.0));
  set_layer(out, "topo.build_s", setups.front());
  set_layer(out, "engine.pool_idle_frac",
            1.0 - total("engine.item") / (kWidth * traced.wall_s));
  set_layer(out, "engine.sink_us_per_row", total("engine.sink") * 1e6 / items);
  set_layer(out, "engine.journal_bytes_per_row",
            static_cast<double>(traced.bytes) / items);
  set_layer(out, "trace.overhead_frac", traced.wall_s / timed.wall_s - 1.0);
  return out;
}

}  // namespace perfbench
