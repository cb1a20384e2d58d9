#include "engine/engine.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/spectralfly_net.hpp"
#include "engine/sink.hpp"
#include "graph/failures.hpp"
#include "graph/metrics.hpp"
#include "layout/power.hpp"
#include "layout/qap.hpp"
#include "layout/wiring.hpp"
#include "partition/bisection.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace sfly::engine {

namespace {

// Seed stream tag for the failure sampler, so link deletion and e.g.
// traffic generation never consume the same stream of a scenario seed.
constexpr std::uint64_t kFailureStream = 0xFA11;
// Seed stream for the mid-run churn schedule (distinct from the static
// failure sampler: a scenario may legally use both knobs at once).
constexpr std::uint64_t kChurnStream = 0xC4DE;

std::uint32_t largest_pow2_at_most(std::uint32_t n) {
  std::uint32_t p = 1;
  while (2ull * p <= n) p *= 2;
  return p;
}

// Shared by kStructure and kLayout: the multilevel cut under the
// scenario's restart budget and seed, recorded raw and normalized.
std::uint64_t eval_bisection(const Scenario& s, const Graph& g, Result& r) {
  BisectionOptions opts;
  opts.restarts = s.bisection_restarts;
  opts.seed = s.seed;
  const std::uint64_t cut = bisection_bandwidth(g, opts);
  r.bisection = static_cast<double>(cut);
  r.normalized_bisection = normalized_cut(g, cut);
  return cut;
}

void eval_structure(const Scenario& s, const Graph& g, Result& r) {
  if (s.want_distances) {
    auto stats = distance_stats(g);
    r.connected = stats.connected;
    if (stats.connected) {
      r.diameter = stats.diameter;
      r.mean_hops = stats.mean_distance;
    }
  } else {
    // Distance metrics skipped, but never report connected=true unchecked
    // (failure-perturbed scenarios can disconnect); one O(n+m) BFS.
    r.connected = is_connected(g);
  }
  if (s.want_girth) r.girth = girth(g);
  if (s.bisection_restarts > 0) eval_bisection(s, g, r);
}

void eval_spectral(const Spectra& sp, std::uint32_t n, Result& r) {
  r.lambda = sp.lambda;
  r.mu1 = sp.mu1;
  r.ramanujan = sp.ramanujan;
  r.fiedler_bisection_lb = sp.bisection_lower_bound(n);
}

void eval_layout(const Scenario& s, const Graph& g, Result& r) {
  layout::QapOptions qopts;
  qopts.em_rounds = s.layout_em_rounds;
  qopts.swap_passes = s.layout_swap_passes;
  qopts.seed = s.seed;
  auto lay = layout::optimize_layout(g, qopts);
  auto wiring = layout::wiring_stats(g, lay.placement);
  r.placement = std::move(lay.placement);
  r.mean_wire_m = lay.mean_wire_m;
  r.max_wire_m = lay.max_wire_m;
  r.wires_electrical = wiring.electrical;
  r.wires_optical = wiring.optical;
  if (s.bisection_restarts > 0) {
    const std::uint64_t cut = eval_bisection(s, g, r);
    auto power = layout::power_stats(wiring, cut);
    r.power_watts = power.total_watts;
    r.mw_per_gbps = power.mw_per_gbps;
  }
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kStructure: return "structure";
    case Kind::kSpectral: return "spectral";
    case Kind::kLayout: return "layout";
  }
  return "?";
}

Engine::Engine(EngineConfig cfg) : cfg_(cfg), cache_(&pool_), pool_(cfg.threads) {}

void Engine::register_topology(std::string name, std::function<Graph()> build,
                               std::uint32_t concentration) {
  cache_.register_topology(std::move(name), std::move(build), concentration);
}

SimResult Engine::evaluate(const SimScenario& s, std::size_t index) {
  SimResult r;
  r.index = index;
  r.topology = s.topology;
  r.label = s.label;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    auto art = cache_.get(s.topology);
    core::NetworkOptions opts;
    opts.routing = s.algo;
    opts.vcs = s.vcs;  // 0 = paper rule, applied by the Network ctor
    opts.sim = cfg_.sim;

    // Pristine scenarios share the cached graph, all-pairs tables and
    // next-hop index through Artifacts::make_network (Network::from_shared);
    // failure-perturbed ones derive a scenario-local graph (and tables)
    // from the cached pristine base.
    core::Network net = [&]() -> core::Network {
      if (s.failure_fraction > 0.0) {
        opts.concentration = art->concentration();
        return core::Network::from_graph(
            s.topology,
            delete_random_edges(*art->graph(), s.failure_fraction,
                                split_seed(s.seed, kFailureStream)),
            opts);
      }
      return art->make_network(s.topology, opts);
    }();

    auto sim = net.make_simulator(s.seed);
    if (s.churn.any())
      sim->inject_failures(make_failure_schedule(
          net.topology(), s.churn, split_seed(s.seed, kChurnStream)));
    r.diameter = net.diameter();
    const Workload& w = s.workload;
    if (w.motif) {
      auto motif = w.motif();
      auto res = sim::run_motif(*sim, *motif, s.seed, w.motif_compute_ns);
      r.completion_ns = res.completion_ns;
      r.messages = res.messages;
      r.mean_latency_ns = res.mean_latency_ns;
      r.max_latency_ns = sim->message_latency().max();
      r.p99_latency_ns = sim->message_latency().percentile(0.99);
    } else {
      sim::SyntheticLoad load;
      load.pattern = w.pattern;
      load.nranks =
          w.nranks ? w.nranks : largest_pow2_at_most(sim->num_endpoints());
      load.message_bytes = w.message_bytes;
      load.messages_per_rank = w.messages_per_rank;
      load.offered_load = w.offered_load;
      load.seed = s.seed;
      load.placement = w.placement;
      auto res = run_synthetic(*sim, load);
      r.max_latency_ns = res.max_latency_ns;
      r.mean_latency_ns = res.mean_latency_ns;
      r.p99_latency_ns = res.p99_latency_ns;
      r.completion_ns = res.completion_ns;
      r.messages = res.messages;
    }
    r.events = sim->events_processed();
    r.events_by_kind = sim->events_by_kind();
    r.noops_by_kind = sim->noops_by_kind();
    r.packets = sim->packets_forwarded();
    r.reroutes = sim->packets_rerouted();
    r.drops = sim->packets_dropped();
    // Fraction of *scheduled* messages fully delivered (r.messages itself
    // stays the delivered count, as before churn existed).
    const std::size_t scheduled = sim->messages().size();
    r.delivered = scheduled ? static_cast<double>(sim->messages_delivered()) /
                                  static_cast<double>(scheduled)
                            : 1.0;
    if (sim->first_failure_ns() < std::numeric_limits<double>::infinity())
      r.post_churn_p99_ns =
          sim->latency_since(sim->first_failure_ns()).percentile(0.99);
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

Result Engine::evaluate(const Scenario& s, std::size_t index) {
  Result r;
  r.index = index;
  r.topology = s.topology;
  r.kind = s.kind;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    auto art = cache_.get(s.topology);

    // Resolve the evaluation graph: the cached pristine one, or a seeded
    // failure-perturbed derivative (never cached — it is scenario-local).
    std::shared_ptr<const Graph> base = art->graph();
    std::shared_ptr<const Graph> g = base;
    if (s.failure_fraction > 0.0)
      g = std::make_shared<const Graph>(delete_random_edges(
          *base, s.failure_fraction, split_seed(s.seed, kFailureStream)));
    r.vertices = g->num_vertices();
    r.radix = g->num_vertices() ? g->degree(0) : 0;

    switch (s.kind) {
      case Kind::kStructure:
        eval_structure(s, *g, r);
        break;
      case Kind::kSpectral:
        if (g == base) {
          eval_spectral(*art->spectra(), g->num_vertices(), r);
        } else {
          eval_spectral(compute_spectra(*g), g->num_vertices(), r);
        }
        break;
      case Kind::kLayout:
        eval_layout(s, *g, r);
        break;
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  return r;
}

// Fan the batch across the pool with a sliding submission window, park
// out-of-order completions in a reorder buffer, and deliver the in-order
// prefix to the sinks from the calling thread.  The window bounds both the
// reorder buffer and the submitted-but-unconsumed backlog, so memory stays
// O(threads) at any campaign size; evaluation itself is unchanged, so
// results are bitwise identical to the collect-everything path at any
// thread count.
template <class Scen>
std::size_t Engine::run_stream(const std::vector<Scen>& batch,
                               const std::vector<ResultSink*>& sinks,
                               const StreamOptions& opts) {
  using Row = RowOf<Scen>;
  for (auto* s : sinks) s->begin(batch.size());
  if constexpr (std::is_same_v<Scen, SimScenario>) prebuild(batch);
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::size_t, Row> done;  // completed, not yet delivered
  std::size_t next_submit = 0, next_deliver = 0;
  std::size_t finished = 0;  // tasks past their last use of mu, cv, done
  bool stopping = false;     // stop_after fired: drain, don't submit
  const std::size_t window =
      std::max<std::size_t>(16, std::size_t{4} * pool_.width());

  auto submit_one = [&](std::size_t i) {
    pool_.submit([&, i] {
      // evaluate() turns scenario failures into ok=false results; this
      // catch covers only infrastructure failures (e.g. bad_alloc) that
      // would otherwise leave a hole in the reorder buffer and deadlock
      // the delivery loop.
      Row r;
      try {
        r = evaluate(batch[i], opts.index_base + i);
      } catch (const std::exception& e) {
        r.index = opts.index_base + i;
        r.error = e.what();
      } catch (...) {
        r.index = opts.index_base + i;
        r.error = "unknown evaluation failure";
      }
      std::lock_guard lock(mu);
      done.emplace(i, std::move(r));
      ++finished;
      cv.notify_one();
    });
  };

  try {
    while (next_deliver < (stopping ? next_submit : batch.size())) {
      while (!stopping && next_submit < batch.size() &&
             next_submit < next_deliver + window)
        submit_one(next_submit++);
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return done.count(next_deliver) != 0; });
      while (!done.empty() && done.begin()->first == next_deliver) {
        Row r = std::move(done.begin()->second);
        done.erase(done.begin());
        lock.unlock();
        for (auto* s : sinks) s->consume(r);
        ++next_deliver;
        lock.lock();
      }
      // Stop check between deliveries: in-flight work (everything up to
      // next_submit) still drains and delivers, so the consumed prefix of
      // the batch is contiguous — exactly what a resume journal needs.
      if (!stopping && opts.stop_after && opts.stop_after()) stopping = true;
    }
  } catch (...) {
    // A sink threw: wait out the tasks still using this frame's state.
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return finished == next_submit; });
    throw;
  }
  for (auto* s : sinks) s->end();
  return next_deliver;
}

// Built lazily, a topology's shared tables and next-hop index would be
// built by its first scenario task on one core while the tasks behind it
// wait.  A build that throws is left to the scenarios to report.
void Engine::prebuild(const std::vector<SimScenario>& batch) {
  const auto t0 = std::chrono::steady_clock::now();
  std::set<std::string> done;
  for (const auto& s : batch) {
    if (s.failure_fraction > 0.0 || !done.insert(s.topology).second)
      continue;
    try {
      (void)cache_.get(s.topology)->next_hops();
    } catch (const std::exception&) {
    }
  }
  build_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
}

template <class Scen>
std::vector<RowOf<Scen>> Engine::run(const std::vector<Scen>& batch) {
  std::vector<RowOf<Scen>> results;
  CollectSink collect(&results);
  run_stream(batch, {&collect});
  return results;
}

template std::size_t Engine::run_stream(const std::vector<Scenario>&,
                                        const std::vector<ResultSink*>&,
                                        const StreamOptions&);
template std::size_t Engine::run_stream(const std::vector<SimScenario>&,
                                        const std::vector<ResultSink*>&,
                                        const StreamOptions&);
template std::vector<Result> Engine::run(const std::vector<Scenario>&);
template std::vector<SimResult> Engine::run(const std::vector<SimScenario>&);

}  // namespace sfly::engine
