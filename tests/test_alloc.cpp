// Debug allocation counter for the simulator's steady state: after
// warm-up (pools grown, event-queue capacity reached, latency samples
// reserved), the event loop must process every remaining event of a
// congested workload without a single heap allocation — the acceptance
// bar for the hot-path overhaul (DESIGN.md §4).
//
// The counter instruments this binary's global operator new/delete
// (tests/alloc_counter.hpp); the steady-state window contains nothing but
// Simulator::run, so any allocation inside it is the simulator's.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "alloc_counter.hpp"
#include "core/spectralfly_net.hpp"
#include "sim/traffic.hpp"
#include "topo/paley.hpp"
#include "util/rng.hpp"

namespace sfly::sim {
namespace {

using test::g_allocs;
using test::g_counting;

// A congested fig6-style load point: UGAL-L on Paley(13), every rank
// firing shuffle-pattern messages at high offered load.
std::unique_ptr<Simulator> congested_sim(const core::Network& net) {
  auto sim = net.make_simulator(42);
  SyntheticLoad load;
  load.pattern = Pattern::kShuffle;
  load.nranks = 32;
  load.messages_per_rank = 64;
  load.offered_load = 0.9;
  load.seed = 42;
  // Schedule without running: replicate run_synthetic's send phase.
  std::uint32_t bits = 0;
  while ((1u << bits) < load.nranks) ++bits;
  const auto ranks = place_ranks(load.nranks, sim->num_endpoints(), load.seed);
  const double rate = load.offered_load * sim->config().bandwidth_bytes_per_ns /
                      static_cast<double>(load.message_bytes);
  for (std::uint32_t r = 0; r < load.nranks; ++r) {
    Rng rng(split_seed(load.seed, r));
    std::exponential_distribution<double> gap(rate);
    double t = 0.0;
    for (std::uint32_t m = 0; m < load.messages_per_rank; ++m) {
      t += gap(rng);
      std::uint32_t dst = pattern_destination(load.pattern, r, bits, rng());
      if (dst == r) dst = (dst + 1) & (load.nranks - 1);
      sim->send(ranks[r], ranks[dst], load.message_bytes, t);
    }
  }
  return sim;
}

TEST(AllocationCounter, ZeroSteadyStateAllocationsPerEvent) {
  core::NetworkOptions opts;
  opts.concentration = 4;
  opts.routing = routing::Algo::kUgalL;
  auto net = core::Network::from_graph("Paley(13)", topo::paley_graph({13}), opts);

  // Pass 1: learn the workload's total event count.
  std::uint64_t total_events = 0;
  {
    auto sim = congested_sim(net);
    ASSERT_TRUE(sim->run());
    total_events = sim->events_processed();
  }
  ASSERT_GT(total_events, 10000u);

  // Pass 2: warm up on the first half of the events, then demand a
  // zero-allocation steady state for the entire second half.
  auto sim = congested_sim(net);
  sim->run(std::numeric_limits<double>::infinity(), total_events / 2);

  g_allocs.store(0);
  g_counting.store(true);
  const bool drained = sim->run();
  g_counting.store(false);

  EXPECT_TRUE(drained);
  EXPECT_EQ(sim->events_processed(), total_events);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "simulator allocated during the steady-state half ("
      << (total_events - total_events / 2) << " events)";
}

TEST(AllocationCounter, ZeroSteadyStateAllocationsUnderChurn) {
  // Same congested workload, now with live churn (DESIGN.md §7): one
  // link stays down from 1000 ns on and another bounces down/up, so
  // every transition — queue evacuation, credit handback, live-distance
  // rebuild — lands inside the warm-up half, and the entire second half
  // routes over the degraded topology through the churn path.  The
  // steady-state bar is the same: not a single heap allocation.
  core::NetworkOptions opts;
  opts.concentration = 4;
  opts.routing = routing::Algo::kUgalL;
  auto net = core::Network::from_graph("Paley(13)", topo::paley_graph({13}), opts);
  const FailureSchedule schedule = {
      {1000.0, ChurnKind::kLinkDown, 0, 1},  // no repair: degraded forever
      {1500.0, ChurnKind::kLinkDown, 0, 3},
      {2500.0, ChurnKind::kLinkUp, 0, 3}};

  std::uint64_t total_events = 0;
  {
    auto sim = congested_sim(net);
    sim->inject_failures(schedule);
    ASSERT_TRUE(sim->run());
    total_events = sim->events_processed();
  }
  ASSERT_GT(total_events, 10000u);

  auto sim = congested_sim(net);
  sim->inject_failures(schedule);
  sim->run(std::numeric_limits<double>::infinity(), total_events / 2);

  g_allocs.store(0);
  g_counting.store(true);
  const bool drained = sim->run();
  g_counting.store(false);

  EXPECT_TRUE(drained);
  EXPECT_EQ(sim->events_processed(), total_events);
  EXPECT_GT(sim->packets_rerouted(), 0u);
  EXPECT_EQ(g_allocs.load(), 0u)
      << "simulator allocated during the churn steady-state half ("
      << (total_events - total_events / 2) << " events)";
}

TEST(AllocationCounter, CounterSeesOrdinaryAllocations) {
  g_allocs.store(0);
  g_counting.store(true);
  auto* v = new std::vector<int>(1000);
  g_counting.store(false);
  EXPECT_GE(g_allocs.load(), 1u);
  delete v;
}

}  // namespace
}  // namespace sfly::sim
