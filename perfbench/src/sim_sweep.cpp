// sim_sweep: a synthetic-traffic simulation campaign shaped like
// Figs. 6-8 — the four Sec. VI-B families x patterns x loads x {minimal,
// valiant, ugal-l} on the ~168-router reduced preset, plus two paper-scale
// (~1.1k-router) UGAL-L points per round, so scenario cost is heavy-tailed.
// Runs through Engine::run_sims_stream with a JSONL sink, as --json does.

#include <chrono>
#include <cmath>
#include <functional>

#include "campaign_pass.hpp"
#include "core/spectralfly_net.hpp"
#include "engine/engine.hpp"
#include "sim/traffic.hpp"
#include "topo/bundlefly.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sfly::engine::SimResult;
using sfly::engine::SimScenario;
using sfly::routing::Algo;

constexpr unsigned kWidth = 2;           // campaign pool width
constexpr double kNominalRoundS = 0.5;   // sizes rounds from --seconds
constexpr int kSetupReps = 5;

struct Topo {
  std::string name;
  std::function<sfly::Graph()> build;
  std::uint32_t concentration = 8;
  bool paper_scale = false;
};

std::vector<Topo> topologies(bool tiny) {
  namespace topo = sfly::topo;
  std::vector<Topo> t = {
      {"SpectralFly", [] { return topo::lps_graph({11, 7}); }, 8},
      {"DragonFly", [] { return topo::dragonfly_graph({8, 4, 21}); }, 8},
      {"SlimFly", [] { return topo::slimfly_graph({9}); }, 8},
      {"BundleFly",
       [] { return topo::bundlefly_graph({13, 3, topo::BundleShift::kOptimized}); },
       6},
  };
  if (!tiny) {
    t.push_back({"SpectralFly-paper", [] { return topo::lps_graph({23, 13}); }, 8,
                 true});
    t.push_back({"DragonFly-paper",
                 [] { return topo::dragonfly_graph({16, 8, 69}); }, 8, true});
  }
  return t;
}

// The fixed scenario grid of one round.  Only the scenario seeds depend on
// (seed, round); shapes, order and counts never do.
std::vector<SimScenario> round_batch(const std::vector<Topo>& topos, bool tiny,
                                     std::uint64_t seed, std::uint64_t round) {
  using sfly::sim::Pattern;
  const std::vector<Pattern> patterns =
      tiny ? std::vector<Pattern>{Pattern::kRandom}
           : std::vector<Pattern>{Pattern::kRandom, Pattern::kShuffle,
                                  Pattern::kBitReverse, Pattern::kTranspose};
  const std::vector<double> loads =
      tiny ? std::vector<double>{0.3} : std::vector<double>{0.3, 0.6};
  std::vector<SimScenario> batch;
  auto add = [&](const Topo& t, Algo algo, Pattern p, double load,
                 std::uint32_t nranks, std::uint32_t msgs) {
    SimScenario s;
    s.topology = t.name;
    s.algo = algo;
    s.workload.pattern = p;
    s.workload.offered_load = load;
    s.workload.nranks = nranks;
    s.workload.messages_per_rank = msgs;
    s.seed = sfly::split_seed(seed, round * 4096 + batch.size());
    s.label = 'r' + std::to_string(round);
    batch.push_back(std::move(s));
  };
  for (Pattern p : patterns)
    for (double load : loads)
      for (const Topo& t : topos)
        if (!t.paper_scale)
          for (Algo a : {Algo::kMinimal, Algo::kValiant, Algo::kUgalL})
            add(t, a, p, load, tiny ? 64 : 256, tiny ? 2 : 8);
  for (const Topo& t : topos)
    if (t.paper_scale) add(t, Algo::kUgalL, Pattern::kRandom, 0.5, 2048, 4);
  return batch;
}

// Engine::evaluate_sim's public steps for a pristine synthetic scenario,
// under spans.
SimResult traced_eval(sfly::engine::Engine& eng, const SimScenario& s,
                      std::size_t index) {
  Scope item("engine.item", index);
  SimResult r;
  r.index = index;
  r.topology = s.topology;
  r.label = s.label;
  const auto t0 = std::chrono::steady_clock::now();
  auto art = eng.artifacts().get(s.topology);
  sfly::core::NetworkOptions opts;
  opts.routing = s.algo;
  opts.vcs = s.vcs;
  opts.sim = eng.config().sim;
  std::unique_ptr<sfly::sim::Simulator> sim;
  sfly::core::Network net = [&] {
    Scope build("sim.network_build", index);
    return art->make_network(s.topology, opts);
  }();
  {
    Scope build("sim.network_build", index);
    sim = net.make_simulator(s.seed);
  }
  r.diameter = net.diameter();
  sfly::sim::SyntheticLoad load;
  load.pattern = s.workload.pattern;
  load.nranks = s.workload.nranks;
  load.message_bytes = s.workload.message_bytes;
  load.messages_per_rank = s.workload.messages_per_rank;
  load.offered_load = s.workload.offered_load;
  load.seed = s.seed;
  load.placement = s.workload.placement;
  sfly::sim::LoadResult res;
  {
    Scope run("sim.run", index);
    res = run_synthetic(*sim, load);
  }
  r.max_latency_ns = res.max_latency_ns;
  r.mean_latency_ns = res.mean_latency_ns;
  r.p99_latency_ns = res.p99_latency_ns;
  r.completion_ns = res.completion_ns;
  r.messages = res.messages;
  r.events = sim->events_processed();
  r.packets = sim->packets_forwarded();
  r.reroutes = sim->packets_rerouted();
  r.drops = sim->packets_dropped();
  const std::size_t scheduled = sim->messages().size();
  r.delivered = scheduled ? static_cast<double>(sim->messages_delivered()) /
                                static_cast<double>(scheduled)
                          : 1.0;
  r.ok = true;
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

struct Setup {
  std::unique_ptr<sfly::engine::Engine> eng;
  double setup_s = 0, topo_s = 0, tables_s = 0, next_hops_s = 0;
  double vertices = 0;
};

Setup set_up(const std::vector<Topo>& topos) {
  Setup s;
  const double t0 = now_s();
  sfly::engine::EngineConfig cfg;
  cfg.threads = kWidth;
  s.eng = std::make_unique<sfly::engine::Engine>(cfg);
  for (const Topo& t : topos) s.eng->register_topology(t.name, t.build, t.concentration);
  // Materialize every lazy artifact a scenario touches, so none is built
  // inside the timed phase.
  for (const Topo& t : topos) {
    auto art = s.eng->artifacts().get(t.name);
    double a = now_s();
    s.vertices += art->graph()->num_vertices();
    double b = now_s();
    (void)art->tables();
    double c = now_s();
    (void)art->next_hops();
    double d = now_s();
    s.topo_s += b - a;
    s.tables_s += c - b;
    s.next_hops_s += d - c;
  }
  s.setup_s = now_s() - t0;
  return s;
}

// Every message delivered, and every scenario ok.
bool row_ok(const SimResult& r, const SimScenario& s) {
  return r.ok && r.delivered == 1.0 && r.drops == 0 &&
         r.messages ==
             static_cast<std::uint64_t>(s.workload.nranks) * s.workload.messages_per_rank;
}

}  // namespace

Outcome run_sim_sweep(const Options& o) {
  Outcome out;
  const auto topos = topologies(o.tiny);
  const int rounds = rounds_for(o, kNominalRoundS);

  std::vector<double> setups;
  Setup st;
  for (int rep = 0; rep < (o.trace || o.tiny ? 1 : kSetupReps); ++rep) {
    st = Setup{};  // drop the previous engine before rebuilding
    st = set_up(topos);
    setups.push_back(st.setup_s);
  }
  auto& eng = *st.eng;

  // Warm-up window, discarded: the first scenarios of an extra round.
  {
    auto warm = round_batch(topos, o.tiny, o.seed, 1u << 20);
    warm.resize(std::min<std::size_t>(warm.size(), 12));
    Pass p;
    std::vector<SimResult> rows;
    untraced_pass(eng, warm, p, rows);
  }

  EndToEnd e;
  e.setup_s = median(setups);
  Pass timed;
  std::vector<SimResult> rows;
  std::vector<SimScenario> scenarios;
  const int timed_rounds = o.trace ? std::max(1, rounds / 2) : rounds;
  for (int r = 0; r < timed_rounds; ++r) {
    auto batch = round_batch(topos, o.tiny, o.seed, r);
    untraced_pass(eng, batch, timed, rows);
    scenarios.insert(scenarios.end(), batch.begin(), batch.end());
  }
  double eval_s = 0, events = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    e.latency_ms.push_back(rows[i].wall_ms);
    eval_s += rows[i].wall_ms * 1e-3;
    events += static_cast<double>(rows[i].events);
    if (!row_ok(rows[i], scenarios[i])) ++e.failed;
  }
  e.windows = timed.rounds;
  out.attempted = rows.size();
  out.failed = e.failed;
  out.check(e.failed == 0, "every scenario ok with every message delivered");
  add_end_to_end(out, e);

  out.note("setup_reps", static_cast<double>(setups.size()));
  out.note("rounds", static_cast<double>(timed_rounds));
  out.note("items_per_round", static_cast<double>(rows.size() / timed_rounds));
  out.note("sim.events_per_item", events / static_cast<double>(rows.size()));
  out.note("pool_width", static_cast<double>(kWidth));
  out.note("pool_idle_frac", 1.0 - eval_s / (kWidth * timed.wall_s));
  out.note("digest", quote(hex64(timed.digest)));

  if (!o.trace) return out;

  // Traced pass over the same rounds (same seeds): the row digest must
  // match the untraced pass byte for byte.
  const UnitCosts u = measure_unit_costs();
  Tracer tracer;
  Tracer::install(&tracer);
  Pass traced;
  std::vector<SimResult> trows;
  const double tt0 = now_s();
  for (int r = 0; r < timed_rounds; ++r) {
    const auto batch = round_batch(topos, o.tiny, o.seed, r);
    traced_pass(kWidth, batch,
                [&](const SimScenario& s, std::size_t i) { return traced_eval(eng, s, i); },
                traced, trows);
  }
  const double tt1 = now_s();
  Tracer::install(nullptr);
  out.check(traced.digest == timed.digest,
            "traced rows digest equals untraced rows digest");
  for (std::size_t i = 0; i < trows.size(); ++i)
    if (!row_ok(trows[i], scenarios[i])) ++out.failed;
  out.attempted += trows.size();
  tracer.write_chrome(o.work_dir + "/trace-sim_sweep.json");

  const auto layers = tracer.layers(tt0, tt1);
  print_attribution("sim_sweep traced pass", layers, kWidth * traced.wall_s);
  auto total = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_s;
  };
  const double items = static_cast<double>(trows.size());
  double tevents = 0, packets = 0, decided_ns = 0;
  for (std::size_t i = 0; i < trows.size(); ++i) {
    tevents += static_cast<double>(trows[i].events);
    packets += static_cast<double>(trows[i].packets);
    const double injected = static_cast<double>(trows[i].messages);  // 1 packet each
    const Algo a = scenarios[i].algo;
    decided_ns += injected * (a == Algo::kMinimal   ? u.decision_minimal_ns
                              : a == Algo::kValiant ? u.decision_valiant_ns
                                                    : u.decision_ugal_ns);
  }
  const double run_ns = total("sim.run") * 1e9;
  const double layer_ns =
      tevents * u.event_queue_ns + packets * u.pick_ns + decided_ns;
  std::printf("# sim.run attribution: event queue %.1f%%, next-hop pick %.1f%%, "
              "source decision %.1f%%, unattributed %.1f%%\n",
              100 * tevents * u.event_queue_ns / run_ns,
              100 * packets * u.pick_ns / run_ns, 100 * decided_ns / run_ns,
              100 * (1 - layer_ns / run_ns));

  report_unit_costs(out, u);
  set_layer(out, "sim.run_ms_per_item", total("sim.run") * 1e3 / items);
  set_layer(out, "sim.ns_per_event", run_ns / tevents);
  set_layer(out, "sim.events_per_item", tevents / items);
  set_layer(out, "sim.network_build_ms", total("sim.network_build") * 1e3 / items);
  set_layer(out, "sim.unattributed_frac", 1.0 - layer_ns / run_ns);
  set_layer(out, "routing.tables_build_us_per_vertex", st.tables_s * 1e6 / st.vertices);
  set_layer(out, "routing.next_hop_build_us_per_vertex",
            st.next_hops_s * 1e6 / st.vertices);
  double bytes = 0;
  for (const Topo& t : topos)
    bytes += static_cast<double>(eng.artifacts().get(t.name)->footprint().total());
  set_layer(out, "routing.artifact_mb", bytes / (1024.0 * 1024.0));
  set_layer(out, "topo.build_s", st.topo_s);
  set_layer(out, "engine.artifact_build_s", st.tables_s + st.next_hops_s);
  set_layer(out, "engine.pool_idle_frac",
            1.0 - total("engine.item") / (kWidth * traced.wall_s));
  set_layer(out, "engine.sink_us_per_row", total("engine.sink") * 1e6 / items);
  set_layer(out, "engine.journal_bytes_per_row",
            static_cast<double>(traced.bytes) / items);
  set_layer(out, "trace.overhead_frac", traced.wall_s / timed.wall_s - 1.0);
  return out;
}

}  // namespace perfbench
