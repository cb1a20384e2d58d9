// Campaign-API quickstart: declare sweeps instead of writing loops.
//
//   ./experiment_sweep [threads]
//
// A CampaignBuilder declares the axes (first declared = outermost); the
// engine expands the grid, shares each topology's cached artifacts across
// every scenario naming it, fans the batch over the thread pool, and
// streams results — in batch order, with bounded memory — through sinks
// (CSV, JSON lines).  Results are bitwise deterministic for their seeds at
// any thread count, so this program's stdout is too.

#include <cstdio>
#include <optional>

#include "engine/campaign.hpp"
#include "engine/sink.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "util/parse.hpp"

using namespace sfly;

int main(int argc, char** argv) {
  const auto threads =
      argc > 1 ? parse_uint<unsigned>(argv[1]) : std::optional<unsigned>(0);
  if (!threads) {
    std::fprintf(stderr, "usage: experiment_sweep [threads]\n");
    return 2;
  }
  engine::EngineConfig cfg;
  cfg.threads = *threads;
  engine::Engine eng(cfg);
  engine::Campaign camp(eng, "quickstart");

  const std::vector<engine::TopologySpec> topos = {
      {"LPS(11,7)", [] { return topo::lps_graph({11, 7}); }},
      {"DF(12)", [] {
         return topo::dragonfly_graph(topo::DragonFlyParams::canonical(12));
       }}};

  // Structure under increasing link failures: topology x failure fraction.
  engine::CampaignBuilder structure;
  structure.proto().kind = engine::Kind::kStructure;
  structure.proto().seed = 17;
  structure.topologies(topos).failure_fractions({0.0, 0.1, 0.2});
  camp.analytic("failures", std::move(structure));

  // Minimal vs Valiant under a bit-shuffle load: topology x algo.
  engine::CampaignBuilder routing;
  routing.proto().workload.pattern = sim::Pattern::kShuffle;
  routing.proto().workload.nranks = 256;
  routing.proto().workload.messages_per_rank = 8;
  routing.proto().workload.offered_load = 0.4;
  routing.proto().seed = 17;
  routing.topologies(topos)
      .algos({routing::Algo::kMinimal, routing::Algo::kValiant});
  camp.sims("routing", std::move(routing));

  // Streaming sink: each phase's results reach stdout as JSON lines while
  // the workers complete them, in batch order, each phase behind its
  // batch header — the same bytes `--json` journals hold, with no
  // whole-batch buffering between evaluation and output.
  camp.print_plan();
  std::printf("\n");
  engine::JsonlSink jsonl(stdout);
  camp.run({&jsonl});
  return 0;
}
