#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "graph/metrics.hpp"
#include "spectral/spectra.hpp"
#include "topo/bundlefly.hpp"
#include "topo/classic.hpp"
#include "topo/dragonfly.hpp"
#include "topo/factory.hpp"
#include "topo/jellyfish.hpp"
#include "topo/mms.hpp"
#include "topo/paley.hpp"
#include "topo/skywalk.hpp"
#include "topo/slimfly.hpp"

namespace sfly::topo {
namespace {

// ---------- MMS / SlimFly ----------

class MmsDiameterTwo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MmsDiameterTwo, SizesRadixDiameter) {
  const std::uint64_t q = GetParam();
  MmsParams params{q};
  ASSERT_TRUE(params.valid()) << q;
  auto g = mms_graph(params);
  EXPECT_EQ(g.num_vertices(), 2 * q * q);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, params.radix());
  EXPECT_TRUE(is_connected(g));
  // The McKay–Miller–Širáň property: diameter exactly 2.
  EXPECT_EQ(distance_stats(g).diameter, 2);
}

// Covers all three delta branches incl. the prime powers the paper uses
// (SF(9), SF(27), MMS(4) inside BundleFly).
INSTANTIATE_TEST_SUITE_P(DeltaBranches, MmsDiameterTwo,
                         ::testing::Values(3, 4, 5, 7, 8, 9, 11, 13, 16, 17,
                                           19, 23, 25, 27));

TEST(SlimFly, PaperRadixFormulas) {
  EXPECT_EQ(SlimFlyParams{7}.radix(), 11u);    // delta = -1
  EXPECT_EQ(SlimFlyParams{9}.radix(), 13u);    // delta = +1 (prime power)
  EXPECT_EQ(SlimFlyParams{13}.radix(), 19u);
  EXPECT_EQ(SlimFlyParams{17}.radix(), 25u);
  EXPECT_EQ(SlimFlyParams{23}.radix(), 35u);
  EXPECT_EQ(SlimFlyParams{37}.radix(), 55u);
  EXPECT_EQ(SlimFlyParams{47}.radix(), 71u);
  EXPECT_EQ(SlimFlyParams{59}.radix(), 89u);
  EXPECT_EQ(SlimFlyParams{7}.num_vertices(), 98u);
  EXPECT_EQ(SlimFlyParams{17}.num_vertices(), 578u);
}

TEST(SlimFly, InstanceEnumerationSkipsInvalid) {
  auto inst = slimfly_instances(16);
  std::vector<std::uint64_t> qs;
  for (auto& p : inst) qs.push_back(p.q);
  // q = 6, 10, 14 fail q%4 != 2; q = 12, 15 are not prime powers.
  EXPECT_EQ(qs, (std::vector<std::uint64_t>{3, 4, 5, 7, 8, 9, 11, 13, 16}));
}

// ---------- Paley ----------

TEST(Paley, BasicProperties) {
  auto g = paley_graph({13});
  EXPECT_EQ(g.num_vertices(), 13u);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 6u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(distance_stats(g).diameter, 2);
  // Paley(9) over GF(9) (used by the simulation-scale BundleFly BF(9,9)).
  auto g9 = paley_graph({9});
  EXPECT_TRUE(g9.is_regular(&k));
  EXPECT_EQ(k, 4u);
  EXPECT_EQ(distance_stats(g9).diameter, 2);
}

TEST(Paley, RejectsThreeModFour) {
  EXPECT_FALSE(PaleyParams{7}.valid());
  EXPECT_THROW(paley_graph({7}), std::invalid_argument);
}

// ---------- BundleFly ----------

TEST(BundleFly, PaperSizesAndRadix) {
  EXPECT_EQ(BundleFlyParams({13, 3}).num_vertices(), 234u);
  EXPECT_EQ(BundleFlyParams({13, 3}).radix(), 11u);
  EXPECT_EQ(BundleFlyParams({37, 3}).num_vertices(), 666u);
  EXPECT_EQ(BundleFlyParams({37, 3}).radix(), 23u);
  EXPECT_EQ(BundleFlyParams({97, 4}).num_vertices(), 3104u);
  EXPECT_EQ(BundleFlyParams({97, 4}).radix(), 54u);
  EXPECT_EQ(BundleFlyParams({137, 4}).num_vertices(), 4384u);
  EXPECT_EQ(BundleFlyParams({137, 4}).radix(), 74u);
  EXPECT_EQ(BundleFlyParams({157, 5}).num_vertices(), 7850u);
  EXPECT_EQ(BundleFlyParams({157, 5}).radix(), 85u);
}

TEST(BundleFly, SmallInstanceStructure) {
  BundleFlyParams params{13, 3};
  auto g = bundlefly_graph(params);
  EXPECT_EQ(g.num_vertices(), 234u);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 11u);
  EXPECT_TRUE(is_connected(g));
  // Table I: diameter 3, mean distance 2.56. The optimized affine
  // matchings recover the BundleFly diameter-3 property at this scale.
  auto stats = distance_stats(g);
  EXPECT_EQ(stats.diameter, 3);
  EXPECT_NEAR(stats.mean_distance, 2.56, 0.1);
  EXPECT_EQ(girth(g), 3u);
}

TEST(BundleFly, OptimizedBeatsIdentityAndPlainAffine) {
  // Ablation of the multi-star matching choice (DESIGN.md section 5).
  auto d_opt = distance_stats(bundlefly_graph({13, 3, BundleShift::kOptimized})).diameter;
  auto d_aff = distance_stats(bundlefly_graph({13, 3, BundleShift::kAffine})).diameter;
  auto d_id = distance_stats(bundlefly_graph({13, 3, BundleShift::kIdentity})).diameter;
  EXPECT_EQ(d_opt, 3);
  EXPECT_LE(d_opt, d_aff);
  EXPECT_LE(d_aff, d_id);
}

TEST(BundleFly, EdgeListsPinned) {
  // FNV-1a over edge_list(): the hill climb's far-pair objective must keep
  // choosing the same matchings (full and sampled source sets).
  auto fingerprint = [](const Graph& g) {
    std::uint64_t h = 14695981039346656037ull;
    for (auto [u, v] : g.edge_list())
      for (Vertex x : {u, v}) {
        h ^= x;
        h *= 1099511628211ull;
      }
    return h;
  };
  EXPECT_EQ(fingerprint(bundlefly_graph({13, 3, BundleShift::kOptimized})),
            0x96250e6a3cda2c3eull);
  EXPECT_EQ(fingerprint(bundlefly_graph({37, 3, BundleShift::kAffine})),
            0xafdd7dc0ffcee92aull);
  EXPECT_EQ(fingerprint(bundlefly_graph({37, 3, BundleShift::kOptimized})),
            0x073d497c4b4bfe82ull);
}

TEST(BundleFly, PrimePowerBundleGF9) {
  // The simulation-scale instance BF(9,9) exercises Paley over GF(9) and
  // affine matchings over a non-prime field.
  BundleFlyParams params{9, 9, BundleShift::kAffine};
  auto g = bundlefly_graph(params);
  EXPECT_EQ(g.num_vertices(), 1458u);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, params.radix());
  EXPECT_EQ(k, 17u);  // (9-1)/2 + (27-1)/2 = 4 + 13
  EXPECT_TRUE(is_connected(g));
}

// ---------- DragonFly ----------

class DragonFlyCanonical : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DragonFlyCanonical, SizeRadixDiameter) {
  const std::uint64_t a = GetParam();
  auto params = DragonFlyParams::canonical(a);
  auto g = dragonfly_graph(params);
  EXPECT_EQ(g.num_vertices(), a * (a + 1));
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, a);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(distance_stats(g).diameter, 3);
  EXPECT_EQ(girth(g), 3u);
}

// Covers even and odd a including all Table I instances.
INSTANTIATE_TEST_SUITE_P(TableOne, DragonFlyCanonical,
                         ::testing::Values(4, 5, 12, 24, 53, 69, 85));

TEST(DragonFly, AbsoluteArrangementAlsoRegular) {
  auto params = DragonFlyParams::canonical(12);
  params.arrangement = GlobalArrangement::kAbsolute;
  auto g = dragonfly_graph(params);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 12u);
  EXPECT_EQ(distance_stats(g).diameter, 3);
}

TEST(DragonFly, SimulationScaleConfig) {
  // Section VI-B: g=69 groups, a=16 routers, h=8 global links -> radix 23
  // router graph on 1104 routers (plus 8 endpoints per router).
  DragonFlyParams p{16, 8, 69};
  auto g = dragonfly_graph(p);
  EXPECT_EQ(g.num_vertices(), 1104u);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 23u);  // 15 local + 8 global
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(distance_stats(g).diameter, 3);
}

TEST(DragonFly, CirculantBeatsAbsoluteBisection) {
  // The paper cites Hastings et al.: circulant global links give better
  // bisection than absolute. Verify on DF(16).
  auto circ = DragonFlyParams::canonical(16);
  auto abs = circ;
  abs.arrangement = GlobalArrangement::kAbsolute;
  // (Bisection comparison lives in test_integration to keep this suite
  // fast; here we only check both variants build and are regular.)
  std::uint32_t k = 0;
  EXPECT_TRUE(dragonfly_graph(circ).is_regular(&k));
  EXPECT_TRUE(dragonfly_graph(abs).is_regular(&k));
}

// ---------- Jellyfish / SkyWalk ----------

TEST(Jellyfish, RegularAndConnected) {
  auto g = jellyfish_graph({100, 5, 7});
  EXPECT_EQ(g.num_vertices(), 100u);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 5u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Jellyfish, RejectsOddParity) {
  EXPECT_FALSE(JellyfishParams({5, 3, 1}).valid());  // 15 stubs, odd
  EXPECT_THROW(jellyfish_graph({5, 3, 1}), std::invalid_argument);
}

TEST(Jellyfish, DeterministicPerSeed) {
  auto a = jellyfish_graph({60, 4, 11}).edge_list();
  auto b = jellyfish_graph({60, 4, 11}).edge_list();
  EXPECT_EQ(a, b);
}

TEST(SkyWalk, NearRegularWithPlacement) {
  auto inst = skywalk_graph({168, 12, 3});
  EXPECT_EQ(inst.graph.num_vertices(), 168u);
  EXPECT_EQ(inst.placement.cabinet_of.size(), 168u);
  // Degrees within 1 of the target radix after the repair pass.
  std::size_t full = 0;
  for (Vertex v = 0; v < 168; ++v) {
    EXPECT_LE(inst.graph.degree(v), 12u);
    if (inst.graph.degree(v) == 12u) ++full;
  }
  EXPECT_GE(full, 160u);
  EXPECT_TRUE(is_connected(inst.graph));
}

TEST(SkyWalk, DistanceBiasShortensWires) {
  auto biased = skywalk_graph({128, 8, 5, 2.0});
  auto uniform = skywalk_graph({128, 8, 5, 0.0});
  auto mean_wire = [](const SkyWalkInstance& inst) {
    double total = 0.0;
    auto edges = inst.graph.edge_list();
    for (auto [u, v] : edges) total += inst.placement.wire_length(u, v);
    return total / static_cast<double>(edges.size());
  };
  EXPECT_LT(mean_wire(biased), mean_wire(uniform));
}

// ---------- Factory ----------

TEST(Factory, TableOneClassesMatchPaperCounts) {
  auto classes = table1_classes();
  ASSERT_EQ(classes.size(), 5u);
  const std::uint64_t routers[5][4] = {{168, 98, 234, 156},
                                       {660, 578, 666, 600},
                                       {2448, 2738, 3104, 2862},
                                       {4896, 4418, 4384, 4830},
                                       {6840, 6962, 7850, 7310}};
  for (int c = 0; c < 5; ++c) {
    EXPECT_EQ(classes[c].lps.num_vertices(), routers[c][0]);
    EXPECT_EQ(classes[c].slimfly.num_vertices(), routers[c][1]);
    EXPECT_EQ(classes[c].bundlefly.num_vertices(), routers[c][2]);
    EXPECT_EQ(classes[c].dragonfly_a * (classes[c].dragonfly_a + 1), routers[c][3]);
  }
}

// ---------- Golden-value regression pins ----------
//
// Canonical-instance numbers in the style of test_core.cpp's LPS(3,5)
// pins: exact counts from the constructions, spectral values from closed
// forms (Paley graphs are strongly regular: lambda = (sqrt(q)+1)/2), and
// diameter/girth from the paper's structural claims.  These freeze the
// generators against silent regressions.

TEST(GoldenPaley, ThirteenStronglyRegularSpectrum) {
  auto g = paley_graph({13});
  EXPECT_EQ(g.num_vertices(), 13u);
  EXPECT_EQ(g.num_edges(), 39u);  // q(q-1)/4
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 6u);
  auto sp = compute_spectra(g);
  EXPECT_NEAR(sp.lambda, (std::sqrt(13.0) + 1.0) / 2.0, 1e-6);
  EXPECT_TRUE(sp.ramanujan);
  auto ds = distance_stats(g);
  EXPECT_EQ(ds.diameter, 2);
  EXPECT_EQ(girth(g), 3u);
}

TEST(GoldenPaley, SeventeenAndPrimePowerTwentyFive) {
  auto g17 = paley_graph({17});
  EXPECT_EQ(g17.num_vertices(), 17u);
  EXPECT_EQ(g17.num_edges(), 68u);
  EXPECT_NEAR(compute_spectra(g17).lambda, (std::sqrt(17.0) + 1.0) / 2.0, 1e-6);
  // GF(25): the construction must handle prime powers, lambda = (5+1)/2.
  auto g25 = paley_graph({25});
  EXPECT_EQ(g25.num_vertices(), 25u);
  EXPECT_EQ(g25.num_edges(), 150u);
  EXPECT_NEAR(compute_spectra(g25).lambda, 3.0, 1e-6);
}

TEST(GoldenMms, FiveIsRamanujanGirthFive) {
  MmsParams p{5};
  auto g = mms_graph(p);
  EXPECT_EQ(g.num_vertices(), 50u);   // 2q^2
  EXPECT_EQ(g.num_edges(), 175u);     // n*k/2 = 50*7/2
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 7u);                   // (3q-delta)/2, delta=1
  auto sp = compute_spectra(g);
  EXPECT_NEAR(sp.lambda, 3.0, 1e-6);  // regression pin (2*sqrt(6) ~ 4.90 bound)
  EXPECT_TRUE(sp.ramanujan);
  auto ds = distance_stats(g);
  EXPECT_EQ(ds.diameter, 2);
  EXPECT_EQ(girth(g), 5u);
}

TEST(GoldenSlimFly, PaperSixHundredRouterClass) {
  // SF(17) is the paper's ~600-router comparison instance (Fig. 5).
  auto g = slimfly_graph({17});
  EXPECT_EQ(g.num_vertices(), 578u);  // 2*17^2
  EXPECT_EQ(g.num_edges(), 7225u);    // 578*25/2
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 25u);                  // (3*17-delta)/2, delta=1
  auto sp = compute_spectra(g);
  EXPECT_NEAR(sp.lambda, 9.0, 1e-6);  // regression pin; 2*sqrt(24) ~ 9.80
  EXPECT_TRUE(sp.ramanujan);
  EXPECT_EQ(distance_stats(g).diameter, 2);
}

TEST(GoldenDragonFly, CanonicalTableOneInstances) {
  // DF(12) (Table I) and DF(24) (the Fig. 5 ~600-router class).
  auto g12 = dragonfly_graph(DragonFlyParams::canonical(12));
  EXPECT_EQ(g12.num_vertices(), 156u);  // a(a+1)
  EXPECT_EQ(g12.num_edges(), 936u);     // n*a/2
  auto ds12 = distance_stats(g12);
  EXPECT_EQ(ds12.diameter, 3);
  EXPECT_NEAR(ds12.mean_distance, 2.703226, 1e-5);

  auto g24 = dragonfly_graph(DragonFlyParams::canonical(24));
  EXPECT_EQ(g24.num_vertices(), 600u);
  EXPECT_EQ(g24.num_edges(), 7200u);
  std::uint32_t k = 0;
  EXPECT_TRUE(g24.is_regular(&k));
  EXPECT_EQ(k, 24u);
  auto ds24 = distance_stats(g24);
  EXPECT_EQ(ds24.diameter, 3);
  EXPECT_NEAR(ds24.mean_distance, 2.843072, 1e-5);
  EXPECT_EQ(girth(g24), 3u);
}

TEST(Factory, FeasiblePointsNonEmptyAndSane) {
  auto lps = feasible_lps(30, 30);
  EXPECT_FALSE(lps.empty());
  auto sf = feasible_slimfly(30);
  EXPECT_FALSE(sf.empty());
  auto df = feasible_dragonfly(30);
  EXPECT_EQ(df.size(), 29u);
  auto bf = feasible_bundlefly(30, 10);
  EXPECT_FALSE(bf.empty());
  for (const auto& pt : bf) EXPECT_GT(pt.vertices, pt.radix);
  // Each family's smallest instance: its deferred builder makes a graph
  // of exactly the advertised size.
  for (const auto* family : {&lps, &sf, &df, &bf}) {
    const auto& small = *std::min_element(
        family->begin(), family->end(),
        [](const auto& a, const auto& b) { return a.vertices < b.vertices; });
    EXPECT_EQ(small.build().num_vertices(), small.vertices) << small.name;
  }
}

TEST(Factory, ParseTopologyEveryFamily) {
  const struct {
    const char* spec;
    const char* name;  // canonical
    std::function<Graph()> direct;
  } cases[] = {
      {"LPS(11,7)", "LPS(11,7)", [] { return lps_graph({11, 7}); }},
      {"lps( 11 , 7 )", "LPS(11,7)", [] { return lps_graph({11, 7}); }},
      {"SF(9)", "SF(9)", [] { return slimfly_graph({9}); }},
      {"SlimFly(9)", "SF(9)", [] { return slimfly_graph({9}); }},
      {"BF(5,3)", "BF(5,3)", [] { return bundlefly_graph({5, 3}); }},
      {"BundleFly(5,3)", "BF(5,3)", [] { return bundlefly_graph({5, 3}); }},
      {"DF(8)", "DF(8)",
       [] { return dragonfly_graph(DragonFlyParams::canonical(8)); }},
      {"DF(8,4,21)", "DF(a=8,h=4,g=21)",
       [] { return dragonfly_graph({8, 4, 21}); }},
      {"Paley(13)", "Paley(13)", [] { return paley_graph({13}); }},
      {"Hypercube(6)", "Hypercube(6)", [] { return hypercube_graph(6); }},
      {"Torus(4, 4,4)", "Torus(4,4,4)", [] { return torus_graph({4, 4, 4}); }},
      {"CompleteBipartite(8,8)", "CompleteBipartite(8,8)",
       [] { return complete_bipartite_graph(8, 8); }},
      {"FlattenedButterfly(4,3)", "FlattenedButterfly(4,3)",
       [] { return flattened_butterfly_graph(4, 3); }},
      {"FatTree(8)", "FatTree(8)", [] { return fat_tree_graph(8); }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    const TopologySpec t = parse_topology(c.spec);
    EXPECT_EQ(t.name, c.name);
    EXPECT_EQ(t.concentration, 8u);
    EXPECT_EQ(t.build().num_vertices(), c.direct().num_vertices());
  }
  EXPECT_THROW((void)parse_topology("LPS(11)"), std::invalid_argument);
  EXPECT_THROW((void)parse_topology("DF(8,4)"), std::invalid_argument);
  EXPECT_THROW((void)parse_topology("Torus()"), std::invalid_argument);
  // Every argument is a parse_u64 number that fits a uint32_t: no sign,
  // no narrowing (Hypercube(4294967301) is not Hypercube(5)), and an
  // argument past 2^64 is refused before any number theory runs on it.
  for (const char* bad :
       {"Hypercube(4294967301)", "Torus(4294967298,2)", "FatTree(+4)",
        "Paley(-3)", "Paley(18446744073709551557)", "LPS(1 1,7)",
        "LPS(11,7)x", "LPS(11,,7)"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)parse_topology(bad), std::invalid_argument);
  }
  EXPECT_EQ(split_spec_list("LPS(11,7), SF(9);Paley(13)"),
            (std::vector<std::string>{"LPS(11,7)", "SF(9)", "Paley(13)"}));
}

}  // namespace
}  // namespace sfly::topo
