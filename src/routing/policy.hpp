#pragma once
// Routing policies of Section V: minimal (shortest path with full next-hop
// diversity), Valiant (random intermediate, two minimal phases), and
// UGAL-L (per-packet choice between the minimal and Valiant route using
// only local output-queue occupancy at the source router).
//
// Deadlock avoidance follows Section V-A option (2): the virtual-channel
// index increases by one on every network hop, so the channel dependency
// graph is acyclic.  The paper sizes the VC pool as diameter+1 for minimal
// and 2*diameter+1 for Valiant routing; `required_vcs` reproduces that.
//
// The per-packet rule is written once, over a *minimal-hop oracle* (see
// MinimalHopOracle below).  The simulator runs it over ExactOracle
// (next_hop_index.hpp: all-pairs Tables + NextHopIndex), sflyd's route
// handler over CellQuery (cell_index.hpp), which wraps the exact tables at
// small scale and answers from the hierarchical cell index above it.

#include <concepts>
#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace sfly::routing {

enum class Algo {
  kMinimal,
  kValiant,
  kUgalL,
  // Library extensions beyond the paper's three schemes:
  kUgalG,        // UGAL with a two-hop (rather than source-local) queue probe
  kAdaptiveMin,  // minimal next-hop set, per-hop choice by local queue depth
};

[[nodiscard]] const char* algo_name(Algo a);

/// VC pool size the paper uses for a given algorithm and topology diameter.
[[nodiscard]] std::uint32_t required_vcs(Algo a, std::uint32_t diameter);

/// Per-packet routing state carried in the packet header.
struct PacketRoute {
  Vertex intermediate = 0;  // Valiant waypoint (router id)
  std::uint8_t phase = 0;   // 0: toward intermediate; 1: toward destination
  bool valiant = false;     // true when the packet takes the two-phase route
};

/// One minimal next hop: the neighbor and its port slot (position in the
/// router's adjacency list).
struct Hop {
  Vertex vert = 0;
  std::uint16_t slot = 0;
};

/// A minimal-hop oracle over one topology: exact hop distance d(u, v) and
/// pick(u, v, entropy), the (entropy % count)-th minimal next hop from u
/// toward v (u != v) in adjacency order.  Every oracle picks the same hop
/// for the same arguments, so routes do not depend on which one served them.
template <class O>
concept MinimalHopOracle = requires(O& o, Vertex u, std::uint64_t entropy) {
  { o.num_vertices() } -> std::convertible_to<Vertex>;
  { o.distance(u, u) } -> std::convertible_to<std::uint64_t>;
  { o.pick(u, u, entropy) } -> std::same_as<Hop>;
};

/// Decide the route mode at the source router (called once per packet).
/// UGAL (Singh, 2005) compares queue x hops of the minimal first hop
/// against the Valiant first hop; Valiant wins only if strictly better.
/// UGAL-L probes the source router's output queues, UGAL-G also one hop
/// ahead on each candidate route.  `probe(at, slot)` returns the bytes
/// queued on router `at`'s output port `slot`; `entropy` drives the
/// intermediate and next-hop sampling deterministically.  Templated so the
/// probe inlines: the simulator's hot path neither allocates nor makes an
/// indirect call.
template <MinimalHopOracle Oracle, class PortProbe>
[[nodiscard]] PacketRoute source_decision(Algo algo, Oracle& oracle,
                                          Vertex src_router, Vertex dst_router,
                                          std::uint64_t entropy,
                                          PortProbe&& probe) {
  PacketRoute route;
  if (algo == Algo::kMinimal || algo == Algo::kAdaptiveMin ||
      src_router == dst_router)
    return route;

  // Sample a random intermediate distinct from source and destination
  // (counter-driven redraws cannot cycle).  A two-router network has no
  // such intermediate and routes minimally.
  const Vertex n = oracle.num_vertices();
  if (n < 3) return route;
  std::uint64_t draw = 0xA11CE;
  Vertex mid = static_cast<Vertex>(split_seed(entropy, draw) % n);
  while (mid == src_router || mid == dst_router)
    mid = static_cast<Vertex>(split_seed(entropy, ++draw) % n);

  if (algo == Algo::kValiant) {
    route.valiant = true;
    route.intermediate = mid;
    return route;
  }

  // Minimal side first.  An empty minimal queue always routes minimally
  // (q_val * h_val < 0 never holds for unsigned values), so the Valiant
  // side's picks are skipped; everything toward dst is asked before
  // anything toward mid, so a per-target oracle switches target at most
  // once.
  const Hop min_next =
      oracle.pick(src_router, dst_router, split_seed(entropy, 1));
  std::uint64_t q_min = probe(src_router, min_next.slot);
  if (algo == Algo::kUgalG && min_next.vert != dst_router)
    q_min += probe(min_next.vert,
                   oracle.pick(min_next.vert, dst_router, split_seed(entropy, 3)).slot);
  if (q_min == 0) return route;
  const std::uint64_t h_min = oracle.distance(src_router, dst_router);
  const std::uint64_t mid_to_dst = oracle.distance(mid, dst_router);

  const Hop val_next = oracle.pick(src_router, mid, split_seed(entropy, 2));
  std::uint64_t q_val = probe(src_router, val_next.slot);
  if (algo == Algo::kUgalG && val_next.vert != mid)
    q_val += probe(val_next.vert,
                   oracle.pick(val_next.vert, mid, split_seed(entropy, 4)).slot);
  const std::uint64_t h_val = oracle.distance(src_router, mid) + mid_to_dst;
  if (q_val * h_val < q_min * h_min) {
    route.valiant = true;
    route.intermediate = mid;
  }
  return route;
}

/// The next hop for a packet in flight at router `at`; advances
/// `route.phase` when the Valiant intermediate is reached.
template <MinimalHopOracle Oracle>
[[nodiscard]] Hop next_hop(Oracle& oracle, Vertex at, Vertex dst_router,
                           PacketRoute& route, std::uint64_t entropy) {
  if (route.valiant && route.phase == 0) {
    if (at == route.intermediate)
      route.phase = 1;
    else
      return oracle.pick(at, route.intermediate, entropy);
  }
  return oracle.pick(at, dst_router, entropy);
}

}  // namespace sfly::routing
