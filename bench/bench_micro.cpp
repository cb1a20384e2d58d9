// google-benchmark microbenchmarks of the library's primitives: topology
// generation, all-pairs distance statistics, routing-table construction,
// spectral solves, bisection, the simulator's event queue, run_synthetic's
// per-rank random streams, and raw simulator packet throughput.

#include <benchmark/benchmark.h>

#include <limits>
#include <random>
#include <vector>

#include "core/spectralfly_net.hpp"
#include "graph/failures.hpp"
#include "graph/metrics.hpp"
#include "partition/bisection.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/tables.hpp"
#include "sim/event_queue.hpp"
#include "sim/traffic.hpp"
#include "spectral/spectra.hpp"
#include "topo/dragonfly.hpp"
#include "topo/factory.hpp"
#include "topo/slimfly.hpp"
#include "util/rng.hpp"

using namespace sfly;

namespace {

void BM_LpsGenerate(benchmark::State& state) {
  topo::LpsParams params{static_cast<std::uint64_t>(state.range(0)),
                         static_cast<std::uint64_t>(state.range(1))};
  for (auto _ : state) {
    auto g = topo::lps_graph(params);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetLabel(params.name() + " n=" + std::to_string(params.num_vertices()));
}
BENCHMARK(BM_LpsGenerate)->Args({3, 5})->Args({11, 7})->Args({23, 11})
    ->Unit(benchmark::kMillisecond);

void BM_SlimFlyGenerate(benchmark::State& state) {
  topo::SlimFlyParams params{static_cast<std::uint64_t>(state.range(0))};
  for (auto _ : state) {
    auto g = topo::slimfly_graph(params);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_SlimFlyGenerate)->Arg(7)->Arg(17)->Arg(27)->Unit(benchmark::kMillisecond);

// Fig. 5's per-trial cost: the bit-parallel all-sources BFS on a pristine
// LPS(23,11) and on LPS(29,17) with 30% of its links deleted.
void BM_DistanceStats(benchmark::State& state) {
  topo::LpsParams params{static_cast<std::uint64_t>(state.range(0)),
                         static_cast<std::uint64_t>(state.range(1))};
  const double fraction = static_cast<double>(state.range(2)) / 100.0;
  auto g = delete_random_edges(topo::lps_graph(params), fraction, 1);
  for (auto _ : state) {
    auto s = distance_stats(g);
    benchmark::DoNotOptimize(s.mean_distance);
  }
  state.SetLabel(params.name() + " n=" + std::to_string(g.num_vertices()) + " failed=" +
                 std::to_string(state.range(2)) + "%");
}
BENCHMARK(BM_DistanceStats)->Args({23, 11, 0})->Args({29, 17, 30})
    ->Unit(benchmark::kMillisecond);

void BM_RoutingTables(benchmark::State& state) {
  auto g = topo::lps_graph({11, 7});
  for (auto _ : state) {
    auto t = routing::Tables::build(g);
    benchmark::DoNotOptimize(t.diameter());
  }
}
BENCHMARK(BM_RoutingTables)->Unit(benchmark::kMillisecond);

void BM_Spectra(benchmark::State& state) {
  auto g = topo::lps_graph({23, 11});
  for (auto _ : state) {
    auto s = compute_spectra(g);
    benchmark::DoNotOptimize(s.lambda);
  }
}
BENCHMARK(BM_Spectra)->Unit(benchmark::kMillisecond);

// Fig. 5's other per-trial cost: the multilevel bisector (2 restarts, as
// the fig5 trials run it) on the same two graphs as BM_DistanceStats.
void BM_Bisection(benchmark::State& state) {
  topo::LpsParams params{static_cast<std::uint64_t>(state.range(0)),
                         static_cast<std::uint64_t>(state.range(1))};
  const double fraction = static_cast<double>(state.range(2)) / 100.0;
  auto g = delete_random_edges(topo::lps_graph(params), fraction, 1);
  for (auto _ : state) {
    auto cut = bisection_bandwidth(g, {.restarts = 2, .seed = 3});
    benchmark::DoNotOptimize(cut);
  }
  state.SetLabel(params.name() + " n=" + std::to_string(g.num_vertices()) + " failed=" +
                 std::to_string(state.range(2)) + "%");
}
BENCHMARK(BM_Bisection)->Args({23, 11, 0})->Args({29, 17, 30})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Simulator hot-path primitives: the per-hop routing decision as the
// seed's adjacency scan (Tables::sample_next_hop) vs the precomputed
// NextHopIndex pick, the UGAL queue probe, and a congested-port drain.

void BM_NextHopSampleScan(benchmark::State& state) {
  auto g = topo::lps_graph({11, 7});
  auto t = routing::Tables::build(g);
  const Vertex n = g.num_vertices();
  std::uint64_t e = 0;
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(e % n);
    const Vertex v = static_cast<Vertex>((e * 2654435761ull + 1) % n);
    if (u != v)
      benchmark::DoNotOptimize(t.sample_next_hop(g, u, v, split_seed(9, e)));
    ++e;
  }
}
BENCHMARK(BM_NextHopSampleScan);

void BM_NextHopSampleIndexed(benchmark::State& state) {
  auto g = topo::lps_graph({11, 7});
  auto t = routing::Tables::build(g);
  auto idx = routing::NextHopIndex::build(g, t);
  const Vertex n = g.num_vertices();
  std::uint64_t e = 0;
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(e % n);
    const Vertex v = static_cast<Vertex>((e * 2654435761ull + 1) % n);
    if (u != v) benchmark::DoNotOptimize(idx.pick(u, v, split_seed(9, e)).vert);
    ++e;
  }
}
BENCHMARK(BM_NextHopSampleIndexed);

void BM_NextHopIndexBuild(benchmark::State& state) {
  auto g = topo::lps_graph({11, 7});
  auto t = routing::Tables::build(g);
  for (auto _ : state) {
    auto idx = routing::NextHopIndex::build(g, t);
    benchmark::DoNotOptimize(idx.memory_bytes());
  }
}
BENCHMARK(BM_NextHopIndexBuild)->Unit(benchmark::kMillisecond);

void BM_QueueProbe(benchmark::State& state) {
  // The UGAL congestion signal on a mid-flight simulator: per-port running
  // byte counter (the pre-index path summed per-VC queue bytes after a
  // lower_bound port search; the simulator's own hot path skips even the
  // vertex->port translation by addressing ports by slot).
  auto net = core::Network::spectralfly({11, 7}, {.concentration = 4});
  auto sim = net.make_simulator(9);
  const std::uint32_t eps = sim->num_endpoints();
  for (std::uint32_t ep = 0; ep < eps; ep += 2) sim->send(ep, ep % 8, 8192, 0.0);
  sim->run(std::numeric_limits<double>::infinity(), 5000);  // freeze mid-drain
  const auto& g = net.topology();
  std::uint64_t e = 0;
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(e % g.num_vertices());
    const auto nb = g.neighbors(u);
    benchmark::DoNotOptimize(sim->queue_probe(u, nb[e % nb.size()]));
    ++e;
  }
}
BENCHMARK(BM_QueueProbe);

void BM_CongestedDrain(benchmark::State& state) {
  // try_transmit under heavy contention: every endpoint floods one hot
  // destination router, so a handful of ports serialize the whole load
  // and the per-VC FIFOs stay deep (the intrusive-list fast path).
  auto net = core::Network::spectralfly({11, 7}, {.concentration = 4});
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto sim = net.make_simulator(7);
    const std::uint32_t eps = sim->num_endpoints();
    for (std::uint32_t ep = 0; ep < eps; ep += 3)
      sim->send(ep, ep % 4, 8192, 0.0);
    bool drained = sim->run();
    benchmark::DoNotOptimize(drained);
    events += sim->events_processed();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CongestedDrain)->Unit(benchmark::kMillisecond);

void BM_SimulatorThroughput(benchmark::State& state) {
  auto net = core::Network::spectralfly({11, 7}, {.concentration = 4});
  std::uint64_t packets = 0;
  for (auto _ : state) {
    auto sim = net.make_simulator(9);
    sim::SyntheticLoad load;
    load.pattern = sim::Pattern::kRandom;
    load.nranks = 256;
    load.messages_per_rank = 16;
    load.offered_load = 0.4;
    auto res = run_synthetic(*sim, load);
    benchmark::DoNotOptimize(res.max_latency_ns);
    packets += sim->packets_forwarded();
  }
  state.counters["pkt_hops/s"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

// The simulator's event queue in a hold model at a fixed depth: pop the
// earliest event and push it again one of `delays` later.  One iteration
// is one pop plus one push.
void hold_model(benchmark::State& state, const std::vector<double>& delays) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  for (std::size_t i = 0; i < depth; ++i)
    q.push(delays[i], sim::EventKind::kArrival, i);
  std::size_t i = 0;
  for (auto _ : state) {
    const sim::Event e = q.pop();
    benchmark::DoNotOptimize(e.a);
    q.push(e.time + delays[i++ & (delays.size() - 1)], e.kind, e.a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Integer delays of 1-1000 ns: many tied keys.
void BM_EventQueue(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> delays(1 << 16);
  for (double& d : delays) d = 1.0 + static_cast<double>(uniform_below(rng, 1000));
  hold_model(state, delays);
}
BENCHMARK(BM_EventQueue)->Arg(256)->Arg(2048)->Arg(16384);

// The simulator's delays: link latency, link + router latency, or one
// 4 KB packet's serialization at 12.5 B/ns, each plus up to 1 ns of
// jitter, so times are fractional and ties are rare.
void BM_EventQueueFractional(benchmark::State& state) {
  Rng rng(11);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  constexpr double kBase[] = {50.0, 150.0, 327.68};
  std::vector<double> delays(1 << 16);
  for (double& d : delays) d = kBase[uniform_below(rng, 3)] + jitter(rng);
  hold_model(state, delays);
}
BENCHMARK(BM_EventQueueFractional)->Arg(256)->Arg(2048)->Arg(16384);

// run_synthetic's per-rank traffic streams: 256 ranks, each seeding its
// own generator and drawing 8 messages of (exponential gap, destination
// entropy).  Rng seeds and twists all 312 state words per rank; LazyRng
// only what the 16 draws read.
template <class Gen>
void BM_RankStreams(benchmark::State& state) {
  constexpr std::uint32_t kRanks = 256, kMessages = 8;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    double t = 0.0;
    std::uint64_t entropy = 0;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      Gen rng(split_seed(seed, r));
      std::exponential_distribution<double> gap(0.0125);
      for (std::uint32_t m = 0; m < kMessages; ++m) {
        t += gap(rng);
        entropy ^= rng();
      }
    }
    benchmark::DoNotOptimize(t);
    benchmark::DoNotOptimize(entropy);
    ++seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRanks);
}
BENCHMARK_TEMPLATE(BM_RankStreams, Rng)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_RankStreams, LazyRng)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
