#include "topo/factory.hpp"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <stdexcept>

#include "nt/numtheory.hpp"
#include "topo/classic.hpp"
#include "topo/paley.hpp"

namespace sfly::topo {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

// "LPS(11, 7)" -> family "lps", args {11, 7}.
std::pair<std::string, std::vector<std::uint64_t>> split_spec(
    const std::string& spec) {
  const auto open = spec.find('(');
  const auto close = spec.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open ||
      close != spec.size() - 1)
    throw std::invalid_argument("topology spec must look like Family(a,b): " + spec);
  std::vector<std::uint64_t> args;
  std::string tok;
  for (std::size_t i = open + 1; i <= close; ++i) {
    const char c = spec[i];
    if (c == ',' || c == ')') {
      std::size_t used = 0;
      std::uint64_t v = 0;
      try {
        v = std::stoull(tok, &used);
      } catch (const std::exception&) {
        throw std::invalid_argument("bad topology argument '" + tok + "' in " + spec);
      }
      if (used != tok.size() || tok.empty())
        throw std::invalid_argument("bad topology argument '" + tok + "' in " + spec);
      args.push_back(v);
      tok.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      tok += c;
    }
  }
  return {lower(spec.substr(0, open)), std::move(args)};
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
  auto [family, a] = split_spec(spec);
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
    const auto d = static_cast<unsigned>(a[0]);
    return {"Hypercube(" + std::to_string(d) + ")",
            [d] { return hypercube_graph(d); }};
  }
  if (family == "torus") {  // split_spec rejects an empty argument list
    std::vector<std::uint32_t> dims(a.begin(), a.end());
    std::string name = "Torus(";
    for (std::size_t i = 0; i < dims.size(); ++i)
      name.append(i ? "," : "").append(std::to_string(dims[i]));
    name += ")";
    return {std::move(name), [dims] { return torus_graph(dims); }};
  }
  if (family == "completebipartite") {
    want_args(spec, a.size(), {2});
    const auto x = static_cast<std::uint32_t>(a[0]);
    const auto y = static_cast<std::uint32_t>(a[1]);
    return {"CompleteBipartite(" + std::to_string(x) + "," + std::to_string(y) + ")",
            [x, y] { return complete_bipartite_graph(x, y); }};
  }
  if (family == "flattenedbutterfly") {
    want_args(spec, a.size(), {2});
    const auto x = static_cast<std::uint32_t>(a[0]);
    const auto y = static_cast<std::uint32_t>(a[1]);
    return {"FlattenedButterfly(" + std::to_string(x) + "," + std::to_string(y) + ")",
            [x, y] { return flattened_butterfly_graph(x, y); }};
  }
  if (family == "fattree") {
    want_args(spec, a.size(), {1});
    const auto k = static_cast<std::uint32_t>(a[0]);
    return {"FatTree(" + std::to_string(k) + ")", [k] { return fat_tree_graph(k); }};
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
  for (std::uint64_t p = 5; p <= max_p; ++p) {
    if (!PaleyParams{p}.valid()) continue;
    for (std::uint64_t s = 3; s <= max_s; ++s)
      if (MmsParams{s}.valid())
        out.push_back(spec_of(BundleFlyParams{p, s}, bundlefly_graph));
  }
  return out;
}

}  // namespace sfly::topo
