#include "sim/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace sfly::sim {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kRandom: return "random";
    case Pattern::kShuffle: return "bit-shuffle";
    case Pattern::kBitReverse: return "bit-reverse";
    case Pattern::kTranspose: return "transpose";
    case Pattern::kNeighbor: return "neighbor";
    case Pattern::kHotspot: return "hotspot";
  }
  return "?";
}

std::uint32_t pattern_destination(Pattern p, std::uint32_t rank, std::uint32_t bits,
                                  std::uint64_t entropy) {
  const std::uint32_t mask = (1u << bits) - 1;
  switch (p) {
    case Pattern::kRandom:
      return static_cast<std::uint32_t>(entropy & mask);
    case Pattern::kShuffle:
      return ((rank << 1) | (rank >> (bits - 1))) & mask;
    case Pattern::kBitReverse: {
      std::uint32_t out = 0;
      for (std::uint32_t b = 0; b < bits; ++b)
        if (rank & (1u << b)) out |= 1u << (bits - 1 - b);
      return out;
    }
    case Pattern::kTranspose: {
      const std::uint32_t half = bits / 2;
      // Rotate by half the bits: dst = (rank >> half) | (rank << (bits-half)).
      return ((rank >> half) | (rank << (bits - half))) & mask;
    }
    case Pattern::kNeighbor:
      return (rank + 1) & mask;
    case Pattern::kHotspot: {
      // One in four messages hits the bottom 1/16 of ranks; the rest are
      // uniform (background traffic).
      if ((entropy & 3) == 0) {
        std::uint32_t hot = std::max<std::uint32_t>(1u, (mask + 1) >> 4);
        return static_cast<std::uint32_t>((entropy >> 2) % hot);
      }
      return static_cast<std::uint32_t>((entropy >> 2) & mask);
    }
  }
  return rank;
}

std::vector<EndpointId> place_ranks(std::uint32_t nranks, std::uint32_t num_endpoints,
                                    std::uint64_t seed) {
  if (nranks > num_endpoints)
    throw std::invalid_argument("place_ranks: more ranks than endpoints");
  std::vector<EndpointId> eps(num_endpoints);
  for (EndpointId e = 0; e < num_endpoints; ++e) eps[e] = e;
  Rng rng(seed);
  // Random node subset (partial Fisher-Yates), then standard-order ranks.
  for (std::uint32_t i = 0; i < nranks; ++i) {
    std::uint32_t j = i + static_cast<std::uint32_t>(uniform_below(rng, num_endpoints - i));
    std::swap(eps[i], eps[j]);
  }
  eps.resize(nranks);
  std::sort(eps.begin(), eps.end());
  return eps;
}

std::vector<EndpointId> place_ranks_policy(PlacementPolicy policy,
                                           std::uint32_t nranks,
                                           std::uint32_t num_endpoints,
                                           std::uint64_t seed) {
  if (nranks > num_endpoints)
    throw std::invalid_argument("place_ranks_policy: more ranks than endpoints");
  switch (policy) {
    case PlacementPolicy::kRandom:
      return place_ranks(nranks, num_endpoints, seed);
    case PlacementPolicy::kLinear: {
      std::vector<EndpointId> eps(nranks);
      for (std::uint32_t i = 0; i < nranks; ++i) eps[i] = i;
      return eps;
    }
    case PlacementPolicy::kClustered: {
      Rng rng(seed);
      const EndpointId start =
          static_cast<EndpointId>(uniform_below(rng, num_endpoints));
      std::vector<EndpointId> eps(nranks);
      for (std::uint32_t i = 0; i < nranks; ++i)
        eps[i] = (start + i) % num_endpoints;
      return eps;
    }
  }
  return place_ranks(nranks, num_endpoints, seed);
}

void submit_synthetic(Simulator& sim, const SyntheticLoad& load) {
  if ((load.nranks & (load.nranks - 1)) != 0 || load.nranks < 2)
    throw std::invalid_argument("run_synthetic: nranks must be a power of two");
  if (!std::isfinite(load.offered_load) || load.offered_load <= 0.0)
    throw std::invalid_argument("run_synthetic: offered load must be finite and > 0");
  std::uint32_t bits = 0;
  while ((1u << bits) < load.nranks) ++bits;

  const auto ranks = place_ranks_policy(load.placement, load.nranks,
                                        sim.num_endpoints(), load.seed);

  // Poisson arrivals: rate per rank in messages/ns.
  const double rate = load.offered_load * sim.config().bandwidth_bytes_per_ns /
                      static_cast<double>(load.message_bytes);
  for (std::uint32_t r = 0; r < load.nranks; ++r) {
    LazyRng rng(split_seed(load.seed, r));
    std::exponential_distribution<double> gap(rate);
    double t = 0.0;
    for (std::uint32_t m = 0; m < load.messages_per_rank; ++m) {
      t += gap(rng);
      std::uint32_t dst =
          pattern_destination(load.pattern, r, bits, rng());
      if (dst == r) dst = (dst + 1) & (load.nranks - 1);  // no self traffic
      sim.send(ranks[r], ranks[dst], load.message_bytes, t);
    }
  }
}

LoadResult run_synthetic(Simulator& sim, const SyntheticLoad& load) {
  submit_synthetic(sim, load);
  if (!sim.run())
    throw std::runtime_error("run_synthetic: simulation did not drain");

  LoadResult out;
  const auto& lat = sim.message_latency();
  out.max_latency_ns = lat.max();
  out.mean_latency_ns = lat.mean();
  out.p99_latency_ns = lat.percentile(0.99);
  out.completion_ns = sim.completion_time();
  out.messages = lat.count();
  return out;
}

}  // namespace sfly::sim
