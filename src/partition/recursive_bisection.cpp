#include "partition/recursive_bisection.hpp"

#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace sfly::partition {

CellPartition recursive_bisection(const Graph& g,
                                  const CellPartitionOptions& opts) {
  if (opts.max_cell_size == 0)
    throw std::invalid_argument("recursive_bisection: max_cell_size must be >= 1");
  if (opts.restarts < 1)
    throw std::invalid_argument("recursive_bisection: restarts must be >= 1");

  const Vertex n = g.num_vertices();
  CellPartition out;
  out.cell_of.assign(n, 0);
  out.cell_offsets.push_back(0);
  out.members.reserve(n);
  if (n == 0) return out;

  // Scratch global -> local map and membership flags, reused across
  // splits: `local` is overwritten only where a split reads it, and
  // `in_node` is cleared again over the split's own vertices.
  std::vector<Vertex> local(n, 0);
  std::vector<std::uint8_t> in_node(n, 0);

  // Pre-order walk, side 0 first; split seeds are keyed by the node's
  // pre-order id so the tree shape never depends on traversal bookkeeping.
  struct Node {
    std::vector<Vertex> verts;  // ascending global ids
  };
  std::vector<Node> stack;
  {
    Node root;
    root.verts.resize(n);
    for (Vertex v = 0; v < n; ++v) root.verts[v] = v;
    stack.push_back(std::move(root));
  }
  std::uint64_t node_id = 0;

  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    const std::uint64_t id = node_id++;

    if (node.verts.size() <= opts.max_cell_size) {
      const std::uint32_t c = out.num_cells++;
      for (Vertex v : node.verts) {
        out.cell_of[v] = c;
        out.members.push_back(v);
      }
      out.cell_offsets.push_back(static_cast<std::uint32_t>(out.members.size()));
      continue;
    }

    // Induced subgraph on node.verts (local ids follow the ascending
    // global order, so `side` maps back positionally).
    const Vertex ln = static_cast<Vertex>(node.verts.size());
    for (Vertex i = 0; i < ln; ++i) local[node.verts[i]] = i;
    for (Vertex v : node.verts) in_node[v] = 1;
    std::vector<std::pair<Vertex, Vertex>> edges;
    for (Vertex i = 0; i < ln; ++i) {
      const Vertex u = node.verts[i];
      for (Vertex w : g.neighbors(u))
        if (in_node[w] && w > u) edges.emplace_back(i, local[w]);
    }
    for (Vertex v : node.verts) in_node[v] = 0;
    const Graph sub = Graph::from_edges(ln, std::move(edges));

    BisectionOptions bopts;
    bopts.restarts = opts.restarts;
    bopts.fm_passes = opts.fm_passes;
    bopts.seed = split_seed(opts.seed, id);
    const BisectionResult r = bisect(sub, bopts);

    Node side0, side1;
    side0.verts.reserve(r.part_sizes[0]);
    side1.verts.reserve(r.part_sizes[1]);
    for (Vertex i = 0; i < ln; ++i)
      (r.side[i] == 0 ? side0 : side1).verts.push_back(node.verts[i]);
    // LIFO stack: push side 1 first so side 0 is processed (and numbered)
    // first — the documented pre-order.
    stack.push_back(std::move(side1));
    stack.push_back(std::move(side0));
  }
  return out;
}

}  // namespace sfly::partition
