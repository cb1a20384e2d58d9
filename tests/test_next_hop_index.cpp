#include "routing/next_hop_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "graph/failures.hpp"
#include "graph/metrics.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "topo/bundlefly.hpp"
#include "topo/classic.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/mms.hpp"
#include "topo/paley.hpp"
#include "topo/slimfly.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace sfly::routing {
namespace {

// The index must reproduce the scan-based minimal next-hop recovery
// EXACTLY — same sets, same (adjacency) order, same sampled hop for every
// entropy value — because the simulator's golden pins depend on the
// sampling order bit for bit.

// The (u, v) row's live slots in adjacency order.
std::vector<std::uint16_t> slots_of(
    const NextHopIndex& idx, Vertex u, Vertex v,
    const std::uint64_t* down = NextHopIndex::kNoneDown.data()) {
  std::vector<std::uint16_t> slots;
  idx.for_each_slot(u, v, down, [&](std::uint16_t s) { slots.push_back(s); });
  return slots;
}

void expect_matches_scan(const Graph& g) {
  const Tables t = Tables::build(g);
  const NextHopIndex idx = NextHopIndex::build(g, t);
  ASSERT_EQ(idx.num_vertices(), g.num_vertices());
  ASSERT_EQ(idx.words(), NextHopIndex::words_for(g));

  std::vector<Vertex> scan;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (u == v) {
        EXPECT_TRUE(slots_of(idx, u, v).empty());
        continue;
      }
      t.minimal_next_hops(g, u, v, scan);
      const auto slots = slots_of(idx, u, v);
      ASSERT_EQ(slots.size(), scan.size()) << "u=" << u << " v=" << v;
      ASSERT_GT(slots.size(), 0u);
      for (std::uint32_t i = 0; i < slots.size(); ++i) {
        // Order-equality against the scan, slot/vertex consistency
        // against the adjacency list, and the i-th pick is the i-th hop.
        ASSERT_LT(slots[i], nb.size());
        EXPECT_EQ(nb[slots[i]], scan[i]) << "u=" << u << " v=" << v;
        const Hop hop = idx.pick(u, v, i);
        EXPECT_EQ(hop.slot, slots[i]) << "u=" << u << " v=" << v;
        EXPECT_EQ(hop.vert, scan[i]) << "u=" << u << " v=" << v;
      }
    }
  }
}

void expect_sampling_matches(const Graph& g, std::uint64_t entropies) {
  const Tables t = Tables::build(g);
  const NextHopIndex idx = NextHopIndex::build(g, t);
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (u == v) continue;
      for (std::uint64_t e = 0; e < entropies; ++e)
        ASSERT_EQ(idx.pick(u, v, e).vert, t.sample_next_hop(g, u, v, e))
            << "u=" << u << " v=" << v << " e=" << e;
    }
}

// With a down row, select and for_each_slot must equal the filtered
// scan: the minimal hops whose slot is not down, in adjacency order, the
// (e % live)-th of them picked, and no slot when every minimal slot is
// down.  Per source: one row with exactly the minimal slots of each
// (u, v) down, and three seeded random rows with about 1/2, 1/4 and 1/8
// of the slots down.
void expect_masked_matches_scan(const Graph& g) {
  const Tables t = Tables::build(g);
  const NextHopIndex idx = NextHopIndex::build(g, t);
  const std::size_t words = idx.words();
  std::vector<std::uint64_t> down(words);
  std::vector<Vertex> scan;
  std::vector<std::uint16_t> minimal, live;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nb = g.neighbors(u);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (u == v) continue;
      t.minimal_next_hops(g, u, v, scan);
      minimal.clear();
      for (Vertex x : scan)
        minimal.push_back(static_cast<std::uint16_t>(
            std::lower_bound(nb.begin(), nb.end(), x) - nb.begin()));
      std::vector<std::uint64_t> entropies = {std::uint64_t{1} << 40, ~std::uint64_t{0},
                                              0x9E3779B97F4A7C15};
      for (std::uint64_t e = 0; e < scan.size(); ++e) entropies.push_back(e);
      for (unsigned density = 0; density <= 3; ++density) {
        SCOPED_TRACE("u=" + std::to_string(u) + " v=" + std::to_string(v) +
                     " density=" + std::to_string(density));
        std::fill(down.begin(), down.end(), 0);
        if (density == 0) {
          for (std::uint16_t s : minimal) down[s / 64] |= std::uint64_t{1} << (s % 64);
        } else {
          for (std::size_t w = 0; w < words; ++w) {
            down[w] = ~std::uint64_t{0};
            for (unsigned d = 0; d < density; ++d)
              down[w] &= split_seed(u * 4 + density, w * 4 + d);
          }
        }
        live.clear();
        for (std::uint16_t s : minimal)
          if ((down[s / 64] >> (s % 64) & 1) == 0) live.push_back(s);
        if (density == 0) {
          ASSERT_TRUE(live.empty());
        }
        ASSERT_EQ(slots_of(idx, u, v, down.data()), live);
        for (std::uint64_t e : entropies)
          ASSERT_EQ(idx.select(u, v, e, down.data()),
                    live.empty() ? NextHopIndex::kNoSlot : live[e % live.size()])
              << "e=" << e;
      }
    }
  }
}

TEST(NextHopIndex, MatchesScanOnPaley13) {
  expect_matches_scan(topo::paley_graph({13}));
}

TEST(NextHopIndex, MatchesScanOnMms5) {
  expect_matches_scan(topo::mms_graph({5}));
}

TEST(NextHopIndex, MatchesScanOnDragonFly12) {
  expect_matches_scan(topo::dragonfly_graph(topo::DragonFlyParams::canonical(12)));
}

TEST(NextHopIndex, SamplingOrderMatchesScanOnPaley13) {
  expect_sampling_matches(topo::paley_graph({13}), 16);
}

TEST(NextHopIndex, SamplingOrderMatchesScanOnMms5) {
  expect_sampling_matches(topo::mms_graph({5}), 8);
}

TEST(NextHopIndex, SamplingOrderMatchesScanOnDragonFly12) {
  expect_sampling_matches(
      topo::dragonfly_graph(topo::DragonFlyParams::canonical(12)), 8);
}

TEST(NextHopIndex, MatchesScanOnPaley137) {
  // Radix 68 > 64 and n = 137 is not a multiple of 8.
  const Graph g = topo::paley_graph({137});
  ASSERT_EQ(g.degree(0), 68u);
  expect_matches_scan(g);
}

TEST(NextHopIndex, MatchesScanAcrossMaskWords) {
  // Same-side pairs of K(c,c) have every one of the c neighbors as a
  // minimal next hop: c = 64 fills one mask word, c = 65 spills one bit
  // into a second.  Picks must walk across the word boundary.
  for (std::uint32_t c : {64u, 65u}) {
    SCOPED_TRACE("K(" + std::to_string(c) + "," + std::to_string(c) + ")");
    const Graph g = topo::complete_bipartite_graph(c, c);
    const Tables t = Tables::build(g);
    const NextHopIndex idx = NextHopIndex::build(g, t);
    EXPECT_EQ(idx.words(), c == 64 ? 1u : 2u);
    expect_matches_scan(g);
    expect_masked_matches_scan(g);
    std::vector<std::uint64_t> entropies = {std::uint64_t{1} << 40, ~std::uint64_t{0},
                                            0x9E3779B97F4A7C15, c * 1000ull + 63};
    for (std::uint64_t e = 0; e < c; ++e) entropies.push_back(e);
    for (const auto& [u, v] : {std::pair<Vertex, Vertex>{0, 1}, {c - 1, 0},
                               {c, 2 * c - 1}, {0, c}}) {
      EXPECT_EQ(slots_of(idx, u, v).size(), u / c == v / c ? c : 1u) << u << "->" << v;
      for (std::uint64_t e : entropies) {
        const Hop hop = idx.pick(u, v, e);
        ASSERT_EQ(hop.vert, t.sample_next_hop(g, u, v, e))
            << u << "->" << v << " e=" << e;
        ASSERT_EQ(g.neighbors(u)[hop.slot], hop.vert);
      }
    }
  }
}

TEST(NextHopIndex, MatchesScanOnLpsWithFailedLinks) {
  // An irregular graph: LPS(11,7) with 10% of its links deleted.
  const Graph g = delete_random_edges(topo::lps_graph({11, 7}), 0.1, 3);
  ASSERT_TRUE(is_connected(g));
  EXPECT_FALSE(g.is_regular());
  EXPECT_EQ(NextHopIndex::words_for(g), 1u);
  expect_matches_scan(g);
  expect_masked_matches_scan(g);
}

TEST(NextHopIndex, EveryMaskWidthMatchesFilteredScan) {
  // One graph per mask width: 1, 2, 3 and 8 bytes per pair, and two
  // words.  Under a seeded random down row per source (about 1/4 of the
  // slots down), select must equal the down-filtered scan for every
  // ordered pair: the minimal hops in adjacency order (the order
  // Tables::sample_next_hop picks in), less the down slots, the
  // (e % live)-th picked.  The loop ends at the array's last pair, (n-1,
  // n-1), whose 8-byte load reads into the padding.
  struct Case {
    std::string name;
    Graph g;
    std::size_t degree, bytes, words;
  };
  const std::vector<Case> cases = {
      {"Hypercube(8)", topo::hypercube_graph(8), 8, 1, 1},
      {"LPS(11,7)", topo::lps_graph({11, 7}), 12, 2, 1},
      {"LPS(23,13)", topo::lps_graph({23, 13}), 24, 3, 1},
      {"K(64,64)", topo::complete_bipartite_graph(64, 64), 64, 8, 1},
      {"K(65,65)", topo::complete_bipartite_graph(65, 65), 65, 16, 2},
  };
  TaskPool pool(4);
  std::vector<Vertex> scan;
  std::vector<std::uint16_t> live;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Graph& g = c.g;
    const std::size_t n = g.num_vertices();
    ASSERT_TRUE(g.is_regular());
    ASSERT_EQ(g.degree(0), c.degree);
    const Tables t = Tables::build(g, &pool);
    const NextHopIndex idx = NextHopIndex::build(g, t, &pool);
    EXPECT_EQ(NextHopIndex::pair_bytes_for(g), c.bytes);
    EXPECT_EQ(idx.pair_bytes(), c.bytes);
    EXPECT_EQ(idx.words(), c.words);
    EXPECT_EQ(idx.raw_masks().size(), n * n * c.bytes);
    EXPECT_EQ(idx.memory_bytes(),
              n * n * c.bytes + NextHopIndex::kPadding + g.memory_bytes());
    std::vector<std::uint64_t> down(c.words);
    for (Vertex u = 0; u < n; ++u) {
      for (std::size_t w = 0; w < c.words; ++w)
        down[w] = split_seed(7, u * 2 * c.words + w) &
                  split_seed(7, (u * 2 + 1) * c.words + w);
      const auto nb = g.neighbors(u);
      for (Vertex v = 0; v < n; ++v) {
        live.clear();
        if (u != v) {
          t.minimal_next_hops(g, u, v, scan);
          for (Vertex x : scan) {
            const auto s = static_cast<std::uint16_t>(
                std::lower_bound(nb.begin(), nb.end(), x) - nb.begin());
            if ((down[s / 64] >> (s % 64) & 1) == 0) live.push_back(s);
          }
        }
        const std::uint64_t e = split_seed(u, v);
        ASSERT_EQ(idx.select(u, v, e, down.data()),
                  live.empty() ? NextHopIndex::kNoSlot : live[e % live.size()])
            << "u=" << u << " v=" << v;
        if (u != v) {
          ASSERT_EQ(idx.pick(u, v, e).vert, t.sample_next_hop(g, u, v, e));
        }
      }
    }
  }
}

// Byte pins of the built artifacts: FNV-1a of the distance matrix plus the
// diameter, and of the hop lists enumerated from the index in the CSR
// layout an earlier index stored (offsets = prefix sums of the row counts,
// then every row's vertices and slots in pick order), for the six
// topologies of the sim_sweep benchmark, at pool widths 1 and 4.  The
// digests fold integers only, so they hold across compilers.
template <class T>
std::uint64_t fnv1a(std::span<const T> xs,
                    std::uint64_t h = 14695981039346656037ull) {
  for (T x : xs) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(NextHopIndex, ArtifactDigestsPinned) {
  struct Pin {
    std::string name;
    Graph (*build)();
    std::uint64_t tables, offsets, verts, slots;
  };
  const std::vector<Pin> pins = {
      {"LPS(11,7)", [] { return topo::lps_graph({11, 7}); },
       0x656c67df56a983da, 0x55b5ad177de25a99, 0xcddca3d209ec5ba3, 0x033423f780297651},
      {"DF(8,4,21)", [] { return topo::dragonfly_graph({8, 4, 21}); },
       0x478b90b5e4453f3a, 0x46a06a1ec1fbb695, 0xfce9b940ecfa8587, 0x51e62981a8839651},
      {"SF(9)", [] { return topo::slimfly_graph({9}); },
       0xbf7d8a6a83c85133, 0x32054fdca0681844, 0x24e5a387a6a6cb24, 0x9414ec10ed06b925},
      {"BF(13,3)",
       [] { return topo::bundlefly_graph({13, 3, topo::BundleShift::kOptimized}); },
       0xd81703d298ea8c9a, 0x431305b11c7e0843, 0x5929653dad767f12, 0xfa0b93a3f268aa16},
      {"LPS(23,13)", [] { return topo::lps_graph({23, 13}); },
       0xf6eea54f73d3b0a2, 0x31d4206737d0b1cf, 0x4b88247c2d1cbc9b, 0x49dcefc533f35171},
      {"DF(16,8,69)", [] { return topo::dragonfly_graph({16, 8, 69}); },
       0xaa0b86b6f47699be, 0xaf2e01cce78df1b5, 0xe968eb3f3d255c5b, 0x323f93b1d19cf97f},
  };
  for (const Pin& pin : pins) {
    const Graph g = pin.build();
    for (unsigned w : {1u, 4u}) {
      SCOPED_TRACE(pin.name + " width " + std::to_string(w));
      TaskPool pool(w);
      const Tables t = Tables::build(g, &pool);
      const NextHopIndex idx = NextHopIndex::build(g, t, &pool);
      const std::uint8_t diameter = t.diameter();
      const std::uint64_t tables = fnv1a(std::span<const std::uint8_t>(&diameter, 1),
                                         fnv1a(t.raw_distances()));
      EXPECT_EQ(tables, pin.tables) << std::hex << "0x" << tables;
      std::vector<std::uint32_t> offsets{0};
      std::vector<Vertex> verts;
      std::vector<std::uint16_t> slots;
      for (Vertex u = 0; u < g.num_vertices(); ++u)
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          const auto c = static_cast<std::uint32_t>(slots_of(idx, u, v).size());
          offsets.push_back(offsets.back() + c);
          for (std::uint32_t k = 0; k < c; ++k) {
            const Hop hop = idx.pick(u, v, k);
            verts.push_back(hop.vert);
            slots.push_back(hop.slot);
          }
        }
      const std::uint64_t d_offsets = fnv1a(std::span<const std::uint32_t>(offsets));
      const std::uint64_t d_verts = fnv1a(std::span<const Vertex>(verts));
      const std::uint64_t d_slots = fnv1a(std::span<const std::uint16_t>(slots));
      EXPECT_EQ(d_offsets, pin.offsets) << std::hex << "0x" << d_offsets;
      EXPECT_EQ(d_verts, pin.verts) << std::hex << "0x" << d_verts;
      EXPECT_EQ(d_slots, pin.slots) << std::hex << "0x" << d_slots;
    }
  }
}

TEST(NextHopIndex, BuildsAreByteEqualAtPoolWidthsOneAndFour) {
  // Raw bytes rather than digests of picks, and Paley(137) (radix 68, two
  // mask words per pair), which the one-word pins above do not reach.
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"Paley(13)", topo::paley_graph({13})},
      {"DF(4)", topo::dragonfly_graph(topo::DragonFlyParams::canonical(4))},
      {"LPS(11,7)", topo::lps_graph({11, 7})},
      {"Paley(137)", topo::paley_graph({137})},
  };
  TaskPool one(1), four(4);
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const Tables t1 = Tables::build(g, &one);
    const Tables t4 = Tables::build(g, &four);
    EXPECT_EQ(t1.diameter(), t4.diameter());
    EXPECT_TRUE(std::ranges::equal(t1.raw_distances(), t4.raw_distances()));
    const NextHopIndex i1 = NextHopIndex::build(g, t1, &one);
    const NextHopIndex i4 = NextHopIndex::build(g, t4, &four);
    EXPECT_EQ(i1.words(), i4.words());
    EXPECT_TRUE(std::ranges::equal(i1.raw_masks(), i4.raw_masks()));
  }
  EXPECT_EQ(NextHopIndex::words_for(graphs.back().second), 2u);
}

TEST(NextHopIndex, MismatchedTablesThrow) {
  auto g = topo::paley_graph({13});
  auto other = topo::paley_graph({17});
  auto t = Tables::build(other);
  EXPECT_THROW(NextHopIndex::build(g, t), std::invalid_argument);
}

TEST(NextHopIndex, NextHopSlotFollowsValiantPhases) {
  // next_hop over the exact oracle heads toward the intermediate in phase
  // 0 and flips to the destination at the waypoint; the slot addresses
  // the picked neighbor, which is the hop Tables::sample_next_hop picks.
  auto g = topo::paley_graph({13});
  auto t = Tables::build(g);
  auto idx = NextHopIndex::build(g, t);
  const ExactOracle oracle{t, idx};
  PacketRoute route;
  route.valiant = true;
  route.intermediate = 5;
  for (std::uint64_t e = 0; e < 8; ++e) {
    PacketRoute r = route;
    const Hop hop = next_hop(oracle, 0, 9, r, e);
    EXPECT_EQ(g.neighbors(0)[hop.slot], hop.vert);
    EXPECT_EQ(hop.vert, t.sample_next_hop(g, 0, 5, e));
    EXPECT_EQ(r.phase, 0);
  }
  // At the intermediate itself the phase advances and routing retargets.
  PacketRoute r = route;
  const Hop hop = next_hop(oracle, 5, 9, r, 3);
  EXPECT_EQ(g.neighbors(5)[hop.slot], hop.vert);
  EXPECT_EQ(hop.vert, t.sample_next_hop(g, 5, 9, 3));
  EXPECT_EQ(r.phase, 1);
}

}  // namespace
}  // namespace sfly::routing
