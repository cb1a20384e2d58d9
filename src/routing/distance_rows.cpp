#include "routing/distance_rows.hpp"

namespace sfly::routing {

DistanceRows::DistanceRows(const Graph& g, const Tables* tables)
    : graph_(&g), tables_(tables), dst_(g.num_vertices()) {
  if (tables_ && tables_->num_vertices() != g.num_vertices())
    throw std::invalid_argument("DistanceRows: tables do not match the graph");
}

void DistanceRows::prepare(Vertex dst) {
  const Vertex n = graph_->num_vertices();
  dst_ = n;  // unprepared until the row is whole
  if (tables_) {
    row_ = tables_->raw_distances().data() + static_cast<std::size_t>(dst) * n;
  } else {
    // Plain queue BFS from dst.  Bytes stop at 253 hops, like the
    // all-pairs matrix; 0xFF marks a vertex not (yet) reached.
    own_.assign(n, 0xFF);
    queue_.clear();
    queue_.reserve(n);
    own_[dst] = 0;
    queue_.push_back(dst);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const Vertex u = queue_[head];
      const auto d = static_cast<std::uint8_t>(own_[u] + 1);
      for (Vertex w : graph_->neighbors(u)) {
        if (own_[w] != 0xFF) continue;
        if (d >= 0xFE)
          throw std::runtime_error("routing::DistanceRows: distance overflow");
        own_[w] = d;
        queue_.push_back(w);
      }
    }
    row_ = own_.data();
  }
  dst_ = dst;
}

}  // namespace sfly::routing
