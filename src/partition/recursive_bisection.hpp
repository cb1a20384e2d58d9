#pragma once
// Recursive bisection into a leaf-cell partition — the partitioner half of
// the hierarchical routing artifact (routing::CellIndex), modeled on
// OSRM's include/partition/recursive_bisection.hpp.
//
// The graph is split with the multilevel bisector (partition/bisection.hpp)
// until every piece fits max_cell_size, and the leaves become cells.  On
// expanders (the SpectralFly regime) no small cuts exist, so cells are
// near-arbitrary balanced vertex sets whose induced subgraphs may even be
// internally disconnected — CellIndex's correctness does not depend on cut
// quality, only on the partition being a partition, so the per-split
// bisection runs with few restarts/passes by default.
//
// Deterministic for a (graph, options) pair: splits are seeded by
// split_seed(seed, node-id) in a fixed pre-order walk, side 0 first, and
// cell ids are assigned in leaf-emission order.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "partition/bisection.hpp"

namespace sfly::partition {

struct CellPartitionOptions {
  Vertex max_cell_size = 64;   // leaf emission threshold (>= 1)
  std::uint64_t seed = 1;
  int restarts = 2;            // per-split bisection restarts
  int fm_passes = 4;           // per-split FM refinement passes
};

struct CellPartition {
  std::uint32_t num_cells = 0;
  std::vector<std::uint32_t> cell_of;       // vertex -> cell id
  std::vector<std::uint32_t> cell_offsets;  // num_cells + 1 (CSR over members)
  std::vector<Vertex> members;              // size n, ascending within a cell

  [[nodiscard]] std::uint32_t cell_size(std::uint32_t c) const {
    return cell_offsets[c + 1] - cell_offsets[c];
  }
};

/// Partition `g` into cells of at most `max_cell_size` vertices by
/// recursive balanced bisection.  Works on any graph (connected or not);
/// throws std::invalid_argument when max_cell_size is 0 or restarts < 1.
[[nodiscard]] CellPartition recursive_bisection(
    const Graph& g, const CellPartitionOptions& opts = {});

}  // namespace sfly::partition
