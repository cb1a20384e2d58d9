// sflygen: command-line topology generator / inspector.
//
// Generates any of the library's topologies, prints its structural card
// (size, radix, diameter, mean distance, girth, mu1, bisection), and
// optionally exports the edge list or Graphviz DOT for external tools.
//
//   $ ./examples/sflygen lps 11 7
//   $ ./examples/sflygen slimfly 17 --out sf17.edges
//   $ ./examples/sflygen dragonfly 24 --dot df24.dot
//   $ ./examples/sflygen bundlefly 13 3
//   $ ./examples/sflygen xpander 8 200

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "spectralfly.hpp"
#include "util/parse.hpp"

namespace {

void usage() {
  std::printf(
      "usage: sflygen <family> <params...> [--out FILE] [--dot FILE]\n"
      "  lps p q            LPS(p,q) SpectralFly topology\n"
      "  slimfly q          SlimFly / MMS(q)\n"
      "  dragonfly a        canonical DragonFly DF(a)\n"
      "  bundlefly p s      BundleFly BF(p,s)\n"
      "  paley q            Paley graph\n"
      "  jellyfish n k      random k-regular (seeded)\n"
      "  margulis n         Gabber-Galil expander on n x n\n"
      "  xpander d n        2-lift growth from K_{d+1} to >= n routers\n"
      "  hypercube d | torus e1 e2 [e3...] | fattree k\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfly;
  if (argc < 3) {
    usage();
    return 1;
  }
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string out_path, dot_path;
  std::vector<std::string> pos;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) out_path = args[++i];
    else if (args[i] == "--dot" && i + 1 < args.size()) dot_path = args[++i];
    else pos.push_back(args[i]);
  }

  // Every parameter is a spec argument (kSpecGrammar: 0..4294967295).
  const std::string family = pos[0];
  std::vector<std::uint32_t> nums{0};
  for (std::size_t i = 1; i < pos.size(); ++i) {
    const auto v = parse_uint<std::uint32_t>(pos[i]);
    if (!v) {
      usage();
      return 2;
    }
    nums.push_back(*v);
  }
  auto num = [&](std::size_t i) -> std::uint32_t {
    return i < nums.size() ? nums[i] : 0;
  };

  Graph g;
  std::string name;
  try {
    if (family == "lps") {
      topo::LpsParams p{num(1), num(2)};
      g = topo::lps_graph(p);
      name = p.name();
      if (!p.is_ramanujan_range())
        std::printf("note: q <= 2*sqrt(p) — outside the Ramanujan guarantee\n");
    } else if (family == "slimfly") {
      topo::SlimFlyParams p{num(1)};
      g = topo::slimfly_graph(p);
      name = p.name();
    } else if (family == "dragonfly") {
      auto p = topo::DragonFlyParams::canonical(num(1));
      g = topo::dragonfly_graph(p);
      name = p.name();
    } else if (family == "bundlefly") {
      topo::BundleFlyParams p{num(1), num(2)};
      g = topo::bundlefly_graph(p);
      name = p.name();
    } else if (family == "paley") {
      topo::PaleyParams p{num(1)};
      g = topo::paley_graph(p);
      name = p.name();
    } else if (family == "jellyfish") {
      topo::JellyfishParams p{num(1), num(2), 1};
      g = topo::jellyfish_graph(p);
      name = p.name();
    } else if (family == "margulis") {
      topo::MargulisParams p{num(1)};
      g = topo::margulis_graph(p);
      name = p.name();
    } else if (family == "xpander") {
      topo::XpanderParams p{num(1), num(2)};
      g = topo::xpander_graph(p);
      name = p.name();
    } else if (family == "hypercube") {
      g = topo::hypercube_graph(num(1));
      name = "Q" + pos[1];
    } else if (family == "torus") {
      std::vector<std::uint32_t> dims;
      for (std::size_t i = 1; i < pos.size(); ++i)
        dims.push_back(num(i));
      g = topo::torus_graph(dims);
      name = "Torus";
    } else if (family == "fattree") {
      g = topo::fat_tree_graph(num(1));
      name = "FatTree(" + pos[1] + ")";
    } else {
      usage();
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  auto stats = distance_stats(g);
  std::printf("%s: %s\n", name.c_str(), g.summary().c_str());
  std::printf("  diameter %d, mean distance %.3f, girth %u, %s\n", stats.diameter,
              stats.mean_distance, girth(g),
              stats.connected ? "connected" : "DISCONNECTED");
  std::uint32_t k = 0;
  if (g.is_regular(&k) && stats.connected) {
    auto spec = compute_spectra(g);
    auto cut = bisection_bandwidth(g, {.restarts = 3});
    std::printf("  lambda %.3f (floor %.3f) -> %sRamanujan, mu1 %.3f\n", spec.lambda,
                ramanujan_bound(k), spec.ramanujan ? "" : "not ", spec.mu1);
    std::printf("  bisection >= %.0f (Fiedler), <= %llu (multilevel cut)\n",
                spec.bisection_lower_bound(g.num_vertices()),
                static_cast<unsigned long long>(cut));
  }

  if (!out_path.empty()) {
    save_edge_list(out_path, g, name);
    std::printf("  wrote %s\n", out_path.c_str());
  }
  if (!dot_path.empty()) {
    std::ofstream dot(dot_path);
    write_dot(dot, g, "topology");
    std::printf("  wrote %s\n", dot_path.c_str());
  }
  return 0;
}
