#include "routing/policy.hpp"

namespace sfly::routing {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kMinimal: return "minimal";
    case Algo::kValiant: return "valiant";
    case Algo::kUgalL: return "ugal-l";
    case Algo::kUgalG: return "ugal-g";
    case Algo::kAdaptiveMin: return "adaptive-min";
  }
  return "?";
}

std::uint32_t required_vcs(Algo a, std::uint32_t diameter) {
  return (a == Algo::kMinimal || a == Algo::kAdaptiveMin) ? diameter + 1
                                                          : 2 * diameter + 1;
}

}  // namespace sfly::routing
