#pragma once
// Precomputed minimal next-hop index.
//
// Tables recovers minimal next-hop sets by scanning a router's adjacency
// and testing dist(w,v)+1 == dist(u,v) per neighbor — O(radix) distance-
// matrix probes per hop, which is where the simulator's event loop spends
// its time.  NextHopIndex computes every (router, dst-router) pair's set at
// build time and stores it as one slot mask per ordered pair: bit s set
// iff neighbor slot s of u (position s in u's adjacency list) is a
// minimal next hop toward v.  Mask (u, u) is empty.  The index keeps a
// copy of the graph (a view stays a view) to map a slot back to its
// neighbor vertex.  A routing query is one mask lookup, a popcount and an
// `entropy % count` select — no scan, no search, no allocation — and the
// simulator maps slot -> output port as net_port_base[u] + slot without
// the per-hop lower_bound that port_toward used to do.
//
// Memory is n^2 * B bytes plus 7 bytes of padding, however many hops a
// pair has, so path-diverse LPS graphs cost what DragonFly does.  B =
// ceil(max_degree / 8) up to degree 64 (3 bytes per pair at radix 24),
// and 8 * W above it, where W = ceil(max_degree / 64) is the mask's
// 64-bit word count.  A mask is read one word at a time with an unaligned
// 8-byte load masked to its B bytes (the padding keeps the last pair's
// load inside the array), so every query sees the same W-word mask a
// word-per-pair layout held.
//
// There is one select and one slot iteration, each over the mask with a
// caller's *down row* (W words, bit s = slot s of u is down) masked out:
// select(u, v, e, down) is the (e % live)-th set bit of mask & ~down, or
// kNoSlot when none is live.  The simulator passes its per-router
// down-slot row, zero while every port is up; pick(u, v, e) is select
// with kNoneDown.
//
// The build is one slot-major pass over whole rows of the distance matrix
// (the distance rows come from Tables::build, which runs the same
// bit-parallel BFS sweep as hop_histogram).  For each source u, each block
// of 64 destinations and each slot s, an 8-byte SWAR compare of
// dist[nb[s]] against dist[u] - 1 yields a 64-bit match mask over the
// block, and bit s is ORed into byte s / 8 of each matching destination's
// mask.  A source's masks are one contiguous run of the array, so the
// parallel build's chunks never store into each other's bytes.
//
// Set bits in slot order are the adjacency scan order, so pick(u, v, e)
// — the (e % popcount)-th set bit — returns the same hop as
// Tables::sample_next_hop(g, u, v, e) bit for bit; the golden-value pins
// in tests/test_sim.cpp hold across both paths, and
// tests/test_next_hop_index.cpp pins set- and order-equality and the
// digests of the hop lists enumerated from the masks.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"

namespace sfly::routing {

namespace detail {
// Inline SWAR bit counting: without -march, std::popcount compiles to a
// libgcc call on x86-64.
inline constexpr std::uint64_t kOnes8 = 0x0101010101010101ull;

/// Byte i = popcount of bytes 0..i of x (each at most 64); the top byte
/// is popcount(x).
[[nodiscard]] inline std::uint64_t byte_prefix(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  return ((x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full) * kOnes8;
}

[[nodiscard]] inline std::uint32_t popcount64(std::uint64_t x) {
  return static_cast<std::uint32_t>(byte_prefix(x) >> 56);
}

/// kSelectInByte[b][r]: position of the r-th (0-based) set bit of byte b.
inline constexpr auto kSelectInByte = [] {
  std::array<std::array<std::uint8_t, 8>, 256> t{};
  for (unsigned b = 0; b < 256; ++b)
    for (unsigned i = 0, r = 0; i < 8; ++i)
      if (b >> i & 1) t[b][r++] = static_cast<std::uint8_t>(i);
  return t;
}();

/// Position of the k-th (0-based) set bit of x, given prefix =
/// byte_prefix(x); requires k < popcount(x).  Broadword select: the byte
/// prefix sums locate the byte holding the bit, a table the bit in it.
[[nodiscard]] inline std::uint32_t select64(std::uint64_t x, std::uint64_t prefix,
                                            std::uint64_t k) {
  // Bit 7 of byte i is set iff k >= prefix byte i; no byte borrows, since
  // k + 128 - prefix >= 64.
  const std::uint64_t below =
      ((k * kOnes8 | 0x8080808080808080ull) - prefix) & 0x8080808080808080ull;
  const std::uint32_t at =
      static_cast<std::uint32_t>(((below >> 7) * kOnes8) >> 56) * 8;
  const std::uint64_t rank = k - (((prefix << 8) >> at) & 0xFF);
  return at + kSelectInByte[(x >> at) & 0xFF][rank];
}
}  // namespace detail

class NextHopIndex {
 public:
  /// One (vertex, port-slot) next-hop entry.
  using Hop = routing::Hop;

  /// Build every (u, v) row (parallel over sources on `pool`).  Throws
  /// if `tables` was not built over `g` (size mismatch) or a radix
  /// exceeds the uint16 slot range.
  static NextHopIndex build(const Graph& g, const Tables& tables,
                            TaskPool* pool = nullptr);

  /// Mask words per router pair: max(1, ceil(max_degree / 64)).
  [[nodiscard]] static std::size_t words_for(const Graph& g);
  /// Mask bytes per router pair: max(1, ceil(max_degree / 8)) up to
  /// degree 64, 8 * words_for(g) above it.
  [[nodiscard]] static std::size_t pair_bytes_for(const Graph& g);

  /// Process-wide count of build() calls (sflyd's stats: one per exact
  /// topology, built at startup, warm or cold).
  static std::uint64_t builds();

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t pair_bytes() const { return pair_bytes_; }

  /// The raw n*n*pair_bytes() mask bytes (row-major by (u, v), bit s of
  /// a mask in bit s % 8 of its byte s / 8; read-only, padding excluded).
  [[nodiscard]] std::span<const std::uint8_t> raw_masks() const {
    return {masks_.data(), masks_.size() - kPadding};
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return masks_.size() + graph_.memory_bytes();
  }

  /// Bytes past the last mask, so its 8-byte load stays in the array.
  static constexpr std::size_t kPadding = 7;
  /// select's answer when no minimal next hop is live.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFF;
  /// Mask words of a radix-65536 router, the most an index holds.
  static constexpr std::size_t kMaxWords = 1024;
  /// A down row with no slot down (every port up), for any words().
  static constexpr std::array<std::uint64_t, kMaxWords> kNoneDown{};

  /// Calls f(slot) for each live minimal next-hop slot of (u, v) in
  /// adjacency order: the set bits of mask(u, v) & ~down, where `down`
  /// holds words() words and bit s marks slot s of u down.
  template <class F>
  void for_each_slot(Vertex u, Vertex v, const std::uint64_t* down, F&& f) const {
    const std::uint8_t* m = mask(u, v);
    for (std::size_t w = 0; w < words_; ++w)
      for (std::uint64_t b = word(m, w) & ~down[w]; b != 0; b &= b - 1)
        f(static_cast<std::uint16_t>(w * 64 + std::countr_zero(b)));
  }

  /// The (entropy % live)-th live minimal next-hop slot of (u, v), live
  /// slots as in for_each_slot; kNoSlot when none is live.
  [[nodiscard]] std::uint32_t select(Vertex u, Vertex v, std::uint64_t entropy,
                                     const std::uint64_t* down) const {
    const std::uint8_t* m = mask(u, v);
    if (words_ == 1) {
      const std::uint64_t x = word(m, 0) & ~down[0];
      const std::uint64_t prefix = detail::byte_prefix(x);
      if (x == 0) return kNoSlot;
      return detail::select64(x, prefix, entropy % (prefix >> 56));
    }
    std::uint64_t live = 0;
    for (std::size_t w = 0; w < words_; ++w)
      live += detail::popcount64(word(m, w) & ~down[w]);
    if (live == 0) return kNoSlot;
    std::uint64_t k = entropy % live;
    std::size_t w = 0;
    for (std::uint32_t c; k >= (c = detail::popcount64(word(m, w) & ~down[w])); ++w)
      k -= c;
    const std::uint64_t x = word(m, w) & ~down[w];
    return static_cast<std::uint32_t>(w * 64) +
           detail::select64(x, detail::byte_prefix(x), k);
  }

  /// select with every port up: the (entropy % count)-th minimal next hop
  /// — identical to the hop Tables::sample_next_hop picks.  Requires
  /// u != v (count > 0).
  [[nodiscard]] Hop pick(Vertex u, Vertex v, std::uint64_t entropy) const {
    const std::uint32_t slot = select(u, v, entropy, kNoneDown.data());
    return {graph_.neighbors(u)[slot], static_cast<std::uint16_t>(slot)};
  }

 private:
  NextHopIndex() = default;  // build() is the one constructor

  static_assert(std::endian::native == std::endian::little,
                "mask byte i holds bits [8i, 8i + 8) of its word");

  [[nodiscard]] const std::uint8_t* mask(Vertex u, Vertex v) const {
    return masks_.data() + (static_cast<std::size_t>(u) * n_ + v) * pair_bytes_;
  }
  // Word w of mask m: one unaligned load, cut to the mask's bytes (a
  // multi-word mask fills every byte it loads, so keep_ is all ones).
  [[nodiscard]] std::uint64_t word(const std::uint8_t* m, std::size_t w) const {
    std::uint64_t x;
    std::memcpy(&x, m + 8 * w, sizeof x);
    return x & keep_;
  }

  Vertex n_ = 0;
  std::size_t words_ = 1;
  std::size_t pair_bytes_ = 1;
  std::uint64_t keep_ = 0xFF;        // low pair_bytes_ bytes (all, from 8)
  Graph graph_;                      // slot -> neighbor vertex
  std::vector<std::uint8_t> masks_;  // n*n*pair_bytes_ + kPadding
};

/// The exact minimal-hop oracle: distances from the all-pairs tables,
/// next hops from the precomputed index (one mask select per pick).
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
