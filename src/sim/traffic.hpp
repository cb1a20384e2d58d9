#pragma once
// Synthetic traffic micro-benchmarks of Section VI-C: random, bit shuffle,
// bit reverse, and transpose permutations over a power-of-two rank space,
// Poisson message injection at a given offered load, and the paper's rank
// -> endpoint placement (random node allocation, sequential rank order).

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace sfly::sim {

enum class Pattern {
  kRandom,      // fresh uniform destination per message
  kShuffle,     // rotate rank bits left by one (FFT/sorting motif)
  kBitReverse,  // reverse rank bits
  kTranspose,   // swap high/low halves of the rank bits (matrix transpose)
  // Library extensions beyond the paper's four:
  kNeighbor,    // rank + 1 (ring halo)
  kHotspot,     // 1-in-4 messages target the bottom 1/16 of the ranks
};

[[nodiscard]] const char* pattern_name(Pattern p);

/// Destination rank under a pattern. `bits` = log2(nranks); for kRandom
/// the `entropy` value supplies the draw.
[[nodiscard]] std::uint32_t pattern_destination(Pattern p, std::uint32_t rank,
                                                std::uint32_t bits,
                                                std::uint64_t entropy);

/// Job-placement policy (Section II cites inter-job contention as a
/// motivation for the discrepancy property; policies let that be probed).
enum class PlacementPolicy {
  kRandom,   // the paper's Section VI-B rule: random nodes, standard order
  kLinear,   // first nranks endpoints in id order (contiguous allocation)
  kClustered // contiguous run starting at a random endpoint (wraps)
};

/// Rank placement: choose `nranks` endpoints out of the machine and assign
/// ranks to them.  Mirrors Section VI-B: under-subscription picks nodes
/// uniformly at random, then ranks follow the topology's standard order.
[[nodiscard]] std::vector<EndpointId> place_ranks(std::uint32_t nranks,
                                                  std::uint32_t num_endpoints,
                                                  std::uint64_t seed);

/// Placement under an explicit policy.
[[nodiscard]] std::vector<EndpointId> place_ranks_policy(
    PlacementPolicy policy, std::uint32_t nranks, std::uint32_t num_endpoints,
    std::uint64_t seed);

struct SyntheticLoad {
  Pattern pattern = Pattern::kRandom;
  std::uint32_t nranks = 1024;          // power of two
  std::uint32_t message_bytes = 4096;
  std::uint32_t messages_per_rank = 32;
  double offered_load = 0.5;            // fraction of endpoint injection bandwidth
  std::uint64_t seed = 1;
  PlacementPolicy placement = PlacementPolicy::kRandom;
};

struct LoadResult {
  double max_latency_ns = 0.0;
  double mean_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double completion_ns = 0.0;
  std::uint64_t messages = 0;
};

/// Schedule a synthetic pattern's sends: per-rank Poisson arrivals at
/// rate offered_load * bandwidth / message_bytes.  Throws
/// std::invalid_argument unless nranks is a power of two >= 2 and
/// offered_load is finite and > 0.
void submit_synthetic(Simulator& sim, const SyntheticLoad& load);

/// submit_synthetic, then run the simulator until it drains.  The paper's
/// Fig. 6/7 metric is the maximum time taken across all messages.
[[nodiscard]] LoadResult run_synthetic(Simulator& sim, const SyntheticLoad& load);

}  // namespace sfly::sim
