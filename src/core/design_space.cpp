#include "core/design_space.hpp"

#include <cmath>
#include <limits>

namespace sfly::core {

double mismatch(const Target& t, std::uint64_t routers, std::uint32_t radix) {
  const double dr = std::abs(std::log(static_cast<double>(routers) /
                                      static_cast<double>(t.routers)));
  const double dk = std::abs(std::log(static_cast<double>(radix) /
                                      static_cast<double>(t.radix)));
  return dr + t.radix_weight * dk;
}

namespace {

// The first of `candidates` with the lowest mismatch against `t`.
template <typename Params>
std::optional<Params> closest(const Target& t,
                              const std::vector<Params>& candidates) {
  std::optional<Params> best;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& params : candidates) {
    double s = mismatch(t, params.num_vertices(), params.radix());
    if (s < best_score) {
      best_score = s;
      best = params;
    }
  }
  return best;
}

}  // namespace

std::optional<topo::LpsParams> closest_lps(const Target& t, std::uint64_t max_p,
                                           std::uint64_t max_q) {
  return closest(t, topo::lps_instances(max_p, max_q));
}

std::optional<topo::SlimFlyParams> closest_slimfly(const Target& t,
                                                   std::uint64_t max_q) {
  return closest(t, topo::slimfly_instances(max_q));
}

std::optional<topo::BundleFlyParams> closest_bundlefly(const Target& t,
                                                       std::uint64_t max_p,
                                                       std::uint64_t max_s) {
  return closest(t, topo::bundlefly_instances(max_p, max_s));
}

std::optional<topo::DragonFlyParams> closest_dragonfly(const Target& t,
                                                       std::uint64_t max_a) {
  std::vector<topo::DragonFlyParams> candidates;
  for (std::uint64_t a = 2; a <= max_a; ++a)
    candidates.push_back(topo::DragonFlyParams::canonical(a));
  return closest(t, candidates);
}

ComparisonClass assemble_class(const Target& t) {
  return {closest_lps(t), closest_slimfly(t), closest_bundlefly(t),
          closest_dragonfly(t)};
}

}  // namespace sfly::core
