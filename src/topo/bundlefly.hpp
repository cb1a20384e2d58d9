#pragma once
// BundleFly BF(p,s) — a low-diameter topology for multicore fiber
// (Lei, Dong, Liao, Duato, ICS'20): the multi-star product of an MMS graph
// with parameter s and a Paley graph with parameter p.
//
// Each MMS(s) vertex becomes a "bundle" of p routers forming a Paley(p)
// graph; each MMS edge becomes a perfect matching between the two bundles.
// We realize the matchings as affine maps i -> a*i + c over GF(p) and,
// by default, locally optimize the per-edge (a, c) coefficients to
// minimize the number of vertex pairs beyond distance 3 — recovering the
// BundleFly diameter-3 property exactly at small scales and approaching it
// at large scales (see DESIGN.md for the substitution note).
// 2*p*s^2 routers of radix (p-1)/2 + (3s-delta)/2.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "topo/mms.hpp"
#include "topo/paley.hpp"

namespace sfly::topo {

enum class BundleShift {
  kIdentity,   // all matchings are identity maps (ablation: inflates diameter)
  kAffine,     // deterministic pseudo-random affine maps, no optimization
  kOptimized,  // affine maps + budgeted hill climb on far-pair count (default)
};

struct BundleFlyParams {
  std::uint64_t p = 0;  // Paley parameter (prime power, 1 mod 4)
  std::uint64_t s = 0;  // MMS parameter (prime power, != 2 mod 4)
  BundleShift shift = BundleShift::kOptimized;
  std::uint64_t seed = 1;
  /// Hill-climb iterations for kOptimized; 0 = auto budget by graph size.
  std::uint32_t optimize_iters = 0;

  [[nodiscard]] bool valid() const {
    return PaleyParams{p}.valid() && MmsParams{s}.valid();
  }
  [[nodiscard]] std::uint64_t num_vertices() const { return 2 * p * s * s; }
  [[nodiscard]] std::uint32_t radix() const {
    return PaleyParams{p}.radix() + MmsParams{s}.radix();
  }
  [[nodiscard]] std::string name() const {
    return "BF(" + std::to_string(p) + "," + std::to_string(s) + ")";
  }
};

/// Vertex numbering: mms_vertex * p + bundle_index.
[[nodiscard]] Graph bundlefly_graph(const BundleFlyParams& params);

/// All valid BF(p,s) with 5 <= p <= max_p and 3 <= s <= max_s, p-major.
[[nodiscard]] std::vector<BundleFlyParams> bundlefly_instances(
    std::uint64_t max_p, std::uint64_t max_s);

}  // namespace sfly::topo
