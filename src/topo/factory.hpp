#pragma once
// Unified construction across the four compared families, plus the paper's
// Table-I size classes and the feasible-size enumerations of Fig. 4.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "topo/bundlefly.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"

namespace sfly::topo {

/// One named topology: the name it is registered and reported under, a
/// deferred graph builder (ArtifactCache::register_topology runs it at most
/// once, on first use), the endpoints per router, and optional size
/// metadata.  `vertices`/`radix` let filters select instances without
/// building any graph (design-space sweeps enumerate hundreds); 0 means
/// unknown.  The one named-topology value of benches, campaigns, sflyd and
/// the design-space enumerations below.
struct TopologySpec {
  std::string name;
  std::function<Graph()> build;
  std::uint32_t concentration = 8;
  std::uint64_t vertices = 0;
  std::uint32_t radix = 0;
};

/// Parse a textual topology spec, e.g. "LPS(11,7)", "SF(9)" / "SlimFly(9)",
/// "BF(13,3)" / "BundleFly(13,3)", "DF(8)" / "DF(8,4,21)" (a,h,g),
/// "Paley(13)", "Hypercube(6)", "Torus(4,4,4)", "CompleteBipartite(8,8)",
/// "FlattenedButterfly(4,3)", "FatTree(8)".  Family names are
/// case-insensitive; whitespace around arguments is ignored.  Throws
/// std::invalid_argument on an unknown family or malformed argument list
/// (parameter *validity* is checked lazily by the builder).  The name is
/// canonical and the concentration the default; the four compared
/// families also carry their nominal vertices/radix.
[[nodiscard]] TopologySpec parse_topology(const std::string& spec);

/// Split a spec *list* on commas/semicolons at paren depth 0, so
/// "LPS(11,7),SF(9);Paley(13)" -> {"LPS(11,7)", "SF(9)", "Paley(13)"}.
/// Surrounding whitespace is trimmed; empty items are dropped.
[[nodiscard]] std::vector<std::string> split_spec_list(const std::string& list);

/// One row-group of Table I: four topologies of comparable radix and size.
struct SizeClass {
  LpsParams lps;
  SlimFlyParams slimfly;
  BundleFlyParams bundlefly;
  std::uint64_t dragonfly_a = 0;
};

/// The paper's five size classes (~100 to ~7K routers):
///   LPS(11,7)/SF(7)/BF(13,3)/DF(12) ... LPS(89,19)/SF(59)/BF(157,5)/DF(85).
[[nodiscard]] std::vector<SizeClass> table1_classes();

/// Feasible instances per family for the Fig. 4 design-space plots, each
/// with its (vertices, radix) metadata and a builder that has not run.
[[nodiscard]] std::vector<TopologySpec> feasible_lps(std::uint64_t max_p,
                                                     std::uint64_t max_q);
[[nodiscard]] std::vector<TopologySpec> feasible_slimfly(std::uint64_t max_q);
[[nodiscard]] std::vector<TopologySpec> feasible_dragonfly(std::uint64_t max_a);
[[nodiscard]] std::vector<TopologySpec> feasible_bundlefly(std::uint64_t max_p,
                                                           std::uint64_t max_s);

}  // namespace sfly::topo
