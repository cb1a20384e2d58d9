#include "topo/factory.hpp"

#include <initializer_list>
#include <stdexcept>

#include "nt/numtheory.hpp"
#include "topo/classic.hpp"
#include "topo/paley.hpp"
#include "util/parse.hpp"

namespace sfly::topo {

namespace {

// "Torus", {4, 4, 4} -> "Torus(4,4,4)": a classic family's canonical name.
std::string canonical(const char* family, const std::vector<std::uint32_t>& a) {
  std::string name = family;
  for (std::size_t i = 0; i < a.size(); ++i)
    name.append(i ? "," : "(").append(std::to_string(a[i]));
  return name + ")";
}

void want_args(const std::string& spec, std::size_t got,
               std::initializer_list<std::size_t> allowed) {
  for (std::size_t n : allowed)
    if (got == n) return;
  throw std::invalid_argument("wrong argument count for topology spec: " + spec);
}

// A compared family's instance: canonical name, deferred builder, and the
// nominal size metadata that filters read without building.
template <typename Params>
TopologySpec spec_of(const Params& p, Graph (*build)(const Params&)) {
  return {.name = p.name(),
          .build = [p, build] { return build(p); },
          .vertices = p.num_vertices(),
          .radix = p.radix()};
}

}  // namespace

TopologySpec parse_topology(const std::string& spec) {
  auto parts = parse_spec(spec);
  if (!parts)
    throw std::invalid_argument(std::string("topology spec must look like ") +
                                kSpecGrammar + ": " + spec);
  auto& [family, a] = *parts;
  if (family == "lps") {
    want_args(spec, a.size(), {2});
    return spec_of(LpsParams{a[0], a[1]}, lps_graph);
  }
  if (family == "sf" || family == "slimfly") {
    want_args(spec, a.size(), {1});
    return spec_of(SlimFlyParams{a[0]}, slimfly_graph);
  }
  if (family == "bf" || family == "bundlefly") {
    want_args(spec, a.size(), {2});
    return spec_of(BundleFlyParams{a[0], a[1]}, bundlefly_graph);
  }
  if (family == "df" || family == "dragonfly") {
    want_args(spec, a.size(), {1, 3});
    return spec_of(a.size() == 1 ? DragonFlyParams::canonical(a[0])
                                 : DragonFlyParams{a[0], a[1], a[2]},
                   dragonfly_graph);
  }
  if (family == "paley") {
    want_args(spec, a.size(), {1});
    PaleyParams p{a[0]};
    return {p.name(), [p] { return paley_graph(p); }};
  }
  if (family == "hypercube") {
    want_args(spec, a.size(), {1});
    return {canonical("Hypercube", a),
            [d = a[0]] { return hypercube_graph(d); }};
  }
  if (family == "torus")  // parse_spec rejects an empty argument list
    return {canonical("Torus", a), [dims = a] { return torus_graph(dims); }};
  if (family == "completebipartite") {
    want_args(spec, a.size(), {2});
    return {canonical("CompleteBipartite", a),
            [x = a[0], y = a[1]] { return complete_bipartite_graph(x, y); }};
  }
  if (family == "flattenedbutterfly") {
    want_args(spec, a.size(), {2});
    return {canonical("FlattenedButterfly", a),
            [x = a[0], y = a[1]] { return flattened_butterfly_graph(x, y); }};
  }
  if (family == "fattree") {
    want_args(spec, a.size(), {1});
    return {canonical("FatTree", a),
            [k = a[0]] { return fat_tree_graph(k); }};
  }
  throw std::invalid_argument("unknown topology family in spec: " + spec);
}

std::vector<std::string> split_spec_list(const std::string& list) {
  std::vector<std::string> out;
  std::string tok;
  int depth = 0;
  auto flush = [&] {
    const auto b = tok.find_first_not_of(" \t");
    const auto e = tok.find_last_not_of(" \t");
    if (b != std::string::npos) out.push_back(tok.substr(b, e - b + 1));
    tok.clear();
  };
  for (char c : list) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if ((c == ',' || c == ';') && depth == 0) {
      flush();
    } else {
      tok += c;
    }
  }
  flush();
  return out;
}

std::vector<SizeClass> table1_classes() {
  return {
      {{11, 7}, {7}, {13, 3}, 12},
      {{23, 11}, {17}, {37, 3}, 24},
      {{53, 17}, {37}, {97, 4}, 53},
      {{71, 17}, {47}, {137, 4}, 69},
      {{89, 19}, {59}, {157, 5}, 85},
  };
}

std::vector<TopologySpec> feasible_lps(std::uint64_t max_p, std::uint64_t max_q) {
  std::vector<TopologySpec> out;
  for (const auto& p : lps_instances(max_p, max_q))
    out.push_back(spec_of(p, lps_graph));
  return out;
}

std::vector<TopologySpec> feasible_slimfly(std::uint64_t max_q) {
  std::vector<TopologySpec> out;
  for (const auto& p : slimfly_instances(max_q))
    out.push_back(spec_of(p, slimfly_graph));
  return out;
}

std::vector<TopologySpec> feasible_dragonfly(std::uint64_t max_a) {
  std::vector<TopologySpec> out;
  for (std::uint64_t a = 2; a <= max_a; ++a)
    out.push_back(spec_of(DragonFlyParams::canonical(a), dragonfly_graph));
  return out;
}

std::vector<TopologySpec> feasible_bundlefly(std::uint64_t max_p,
                                             std::uint64_t max_s) {
  std::vector<TopologySpec> out;
  for (const auto& p : bundlefly_instances(max_p, max_s))
    out.push_back(spec_of(p, bundlefly_graph));
  return out;
}

}  // namespace sfly::topo
