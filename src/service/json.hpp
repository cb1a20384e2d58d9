#pragma once
// Kept only for perfbench/src/probes.cpp, which includes this path: the
// scanner lives in util/json.hpp.
#include "util/json.hpp"

namespace sfly::service {
using JsonObject = sfly::JsonObject;
}  // namespace sfly::service
