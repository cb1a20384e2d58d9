#pragma once
// Precomputed minimal next-hop index.
//
// Tables recovers minimal next-hop sets by scanning a router's adjacency
// and testing dist(w,v)+1 == dist(u,v) per neighbor — O(radix) distance-
// matrix probes per hop, which is where the simulator's event loop spends
// its time.  NextHopIndex computes every (router, dst-router) pair's set at
// build time and stores the result as one CSR structure: for each
// ordered pair, the minimal next hops in adjacency order, recorded both as
// the neighbor vertex and as the *port slot* (position within the
// router's adjacency list).  A routing query is then one offset lookup
// plus an `entropy % count` pick — no scan, no search, no allocation —
// and the simulator maps slot -> output port as net_port_base[u] + slot
// without the per-hop lower_bound that port_toward used to do.
//
// The build is slot-major over whole rows of the distance matrix (the
// distance rows come from Tables::build, which runs the same bit-parallel
// BFS sweep as hop_histogram).  For each source u, pass 1 adds each
// slot's matches dist[nb[s]][v] + 1 == dist[u][v] over every v into the
// row counts; after the prefix sum, pass 2 takes a 64-bit match mask per
// slot and 64 destinations and appends (nb[s], s) at each matching row's
// cursor, slots in adjacency order.
//
// The stored order is exactly the scan order, so sample(u, v, e) returns
// the same hop as Tables::sample_next_hop(g, u, v, e) bit for bit; the
// golden-value pins in tests/test_sim.cpp hold across both paths, and
// tests/test_next_hop_index.cpp pins set- and order-equality and the
// built arrays' digests explicitly.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "util/owned_span.hpp"

namespace sfly::routing {

class NextHopIndex {
 public:
  /// One (vertex, port-slot) next-hop entry.
  using Hop = routing::Hop;

  /// A (u, v) row: minimal next hops in adjacency order.
  struct HopList {
    const Vertex* verts = nullptr;
    const std::uint16_t* slots = nullptr;
    std::uint32_t count = 0;
  };

  /// Build every (u, v) row (parallel over sources on `pool`).  Throws
  /// if `tables` was not built over `g` (size mismatch) or a radix
  /// exceeds the uint16 slot range.
  static NextHopIndex build(const Graph& g, const Tables& tables,
                            TaskPool* pool = nullptr);

  /// Zero-copy view over externally owned CSR arrays (e.g. an mmap'd
  /// snapshot): `offsets` must hold n*n+1 entries, `verts`/`slots` the
  /// offsets[n*n] parallel hop entries.  The backing memory must outlive
  /// the index and every copy of it.
  static NextHopIndex from_view(Vertex n, std::span<const std::uint32_t> offsets,
                                std::span<const Vertex> verts,
                                std::span<const std::uint16_t> slots);

  /// Process-wide count of build() calls — warm-restart assertions check
  /// that snapshot-served queries never trigger an index rebuild.
  static std::uint64_t builds();

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::size_t num_entries() const { return verts_.size(); }

  /// Raw CSR arrays (snapshot serialization; read-only).
  [[nodiscard]] std::span<const std::uint32_t> raw_offsets() const {
    return {offsets_.data(), offsets_.size()};
  }
  [[nodiscard]] std::span<const Vertex> raw_verts() const {
    return {verts_.data(), verts_.size()};
  }
  [[nodiscard]] std::span<const std::uint16_t> raw_slots() const {
    return {slots_.data(), slots_.size()};
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.size() * sizeof(std::uint32_t) +
           verts_.size() * sizeof(Vertex) + slots_.size() * sizeof(std::uint16_t);
  }
  [[nodiscard]] bool is_view() const { return offsets_.is_view(); }

  [[nodiscard]] HopList hops(Vertex u, Vertex v) const {
    const std::size_t row = static_cast<std::size_t>(u) * n_ + v;
    const std::uint32_t b = offsets_[row];
    return {verts_.data() + b, slots_.data() + b, offsets_[row + 1] - b};
  }

  [[nodiscard]] std::uint32_t count(Vertex u, Vertex v) const {
    const std::size_t row = static_cast<std::size_t>(u) * n_ + v;
    return offsets_[row + 1] - offsets_[row];
  }

  /// The (entropy % count)-th minimal next hop — identical to the hop
  /// Tables::sample_next_hop picks.  Requires u != v (count > 0).
  [[nodiscard]] Hop pick(Vertex u, Vertex v, std::uint64_t entropy) const {
    const std::size_t row = static_cast<std::size_t>(u) * n_ + v;
    const std::uint32_t b = offsets_[row];
    const std::uint32_t c = offsets_[row + 1] - b;
    const std::uint32_t at = b + static_cast<std::uint32_t>(entropy % c);
    return {verts_[at], slots_[at]};
  }

 private:
  Vertex n_ = 0;
  OwnedSpan<std::uint32_t> offsets_;  // n*n + 1
  OwnedSpan<Vertex> verts_;           // next-hop router ids
  OwnedSpan<std::uint16_t> slots_;    // parallel port slots
};

/// The exact minimal-hop oracle: distances from the all-pairs tables,
/// next hops from the precomputed index (one offset lookup per pick).
/// This is what the simulator routes over.
struct ExactOracle {
  const Tables& tables;
  const NextHopIndex& index;

  [[nodiscard]] Vertex num_vertices() const { return tables.num_vertices(); }
  [[nodiscard]] std::uint8_t distance(Vertex u, Vertex v) const {
    return tables.distance(u, v);
  }
  [[nodiscard]] Hop pick(Vertex u, Vertex v, std::uint64_t entropy) const {
    return index.pick(u, v, entropy);
  }
};

/// source_decision over ExactOracle{tables, idx}.
template <class PortProbe>
[[nodiscard]] PacketRoute source_decision_indexed(
    Algo algo, const Tables& tables, const NextHopIndex& idx, Vertex src_router,
    Vertex dst_router, std::uint64_t entropy, PortProbe&& probe) {
  const ExactOracle oracle{tables, idx};
  return source_decision(algo, oracle, src_router, dst_router, entropy, probe);
}

}  // namespace sfly::routing
