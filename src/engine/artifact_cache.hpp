#pragma once
// Per-topology artifact cache.  Building a topology's graph, all-pairs
// routing tables, and spectra dominates the cost of small-scenario sweeps
// and is identical across every scenario that names the same topology, so
// the engine computes each artifact once (thread-safe, lazily) and hands
// out shared pointers.  Failure-perturbed scenarios reuse the cached
// pristine graph as their base and derive the rest per scenario.
//
// The O(V^2) tables are built only where they fit, at or below
// kCellExactThreshold routers; sflyd routes above it over BFS distance
// rows of the graph alone (routing/distance_rows.hpp).  cell_index()
// remains only for perfbench's cell probe.

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "core/spectralfly_net.hpp"
#include "graph/graph.hpp"
#include "routing/cell_index.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/tables.hpp"
#include "spectral/spectra.hpp"

namespace sfly::engine {

/// Vertex-count ceiling for exact all-pairs routing artifacts.  At or
/// below it sflyd builds the Tables and next-hop index at startup and
/// routes over rows of the shared Tables; above it the O(V^2) tables are
/// impractical, so routes run one BFS row per destination.
inline constexpr Vertex kCellExactThreshold = 4096;

/// Lazily materialized per-topology artifacts.  Thread-safe: concurrent
/// callers block until the single builder finishes, then share the result.
/// Each component is built at most once: a builder that throws stores its
/// exception, and every later request for that component rethrows it.
/// Routing builds run on `pool` (its cache's, an Engine's; null: serially),
/// so request none after that engine is gone.
class Artifacts {
 public:
  /// Per-component byte sizes of the materialized artifacts (zero for
  /// components not yet built).  Sizes snapshots, the --phase-json
  /// record's `artifacts` and sflyd's `stats` answer.
  struct Footprint {
    std::size_t graph_bytes = 0;
    std::size_t tables_bytes = 0;
    std::size_t next_hops_bytes = 0;
    std::size_t spectra_bytes = 0;
    std::size_t cells_bytes = 0;  // 0 unless cell_index() was called
    [[nodiscard]] std::size_t total() const {
      std::size_t sum = 0;
      for_each_field([&](const char*, auto member) {
        if constexpr (std::is_member_object_pointer_v<decltype(member)>)
          sum += this->*member;
      });
      return sum;
    }

    /// Their keys (util/json.hpp's field lists).
    template <class F>
    static void for_each_field(F&& f) {
      f("graph_bytes", &Footprint::graph_bytes);
      f("tables_bytes", &Footprint::tables_bytes);
      f("next_hops_bytes", &Footprint::next_hops_bytes);
      f("spectra_bytes", &Footprint::spectra_bytes);
      f("cells_bytes", &Footprint::cells_bytes);
      f("total_bytes", &Footprint::total);
    }
  };

  Artifacts(std::function<Graph()> build, std::uint32_t concentration,
            TaskPool* pool = nullptr)
      : build_(std::move(build)), concentration_(concentration), pool_(pool) {}

  /// Snapshot restore: the graph and spectra are adopted as-is; the
  /// routing components are built from the graph on first use.
  Artifacts(std::shared_ptr<const Graph> graph,
            std::shared_ptr<const Spectra> spectra, std::uint32_t concentration,
            TaskPool* pool = nullptr)
      : concentration_(concentration),
        pool_(pool),
        graph_(std::move(graph)),
        spectra_(std::move(spectra)) {}

  [[nodiscard]] std::uint32_t concentration() const { return concentration_; }

  [[nodiscard]] std::shared_ptr<const Graph> graph();
  [[nodiscard]] std::shared_ptr<const routing::Tables> tables();
  [[nodiscard]] std::shared_ptr<const routing::NextHopIndex> next_hops();
  [[nodiscard]] std::shared_ptr<const Spectra> spectra();

  /// Build what serving needs, so no query pays for a build: at or below
  /// kCellExactThreshold routers the next-hop index and the tables under
  /// it, then the spectra.  Above it routes need only the
  /// graph, and the O(V^2) tables would be gigabytes.  sflyd calls this
  /// for every topology, from --topos or --snapshot alike.
  void materialize();

  /// The hierarchical cell index, built on first call at any size.  Its
  /// last caller is perfbench's cell probe (perfbench/src/probes.cpp);
  /// nothing in src/ or tools/ calls it (ROADMAP item 13(c)).
  [[nodiscard]] std::shared_ptr<const routing::CellIndex> cell_index();
  /// Process-wide routing::CellIndex build count (sflyd's stats).
  [[nodiscard]] static std::uint64_t cells_built() {
    return routing::CellIndex::builds();
  }

  /// A core::Network sharing the cached graph, all-pairs tables, and
  /// next-hop index (Network::from_shared — no per-call BFS rebuild, no
  /// adjacency copy; scenario evaluation is allocation-free on the
  /// topology).  `opts.concentration` is overridden from the
  /// registration; routing/vcs/sim knobs pass through.
  [[nodiscard]] core::Network make_network(std::string name,
                                           core::NetworkOptions opts = {});

  /// Bytes per materialized component; does not force any build.
  [[nodiscard]] Footprint footprint() const;

 private:
  // One component's build-once state.  Unlike std::call_once, a builder
  // that throws is not retried: its exception is kept for every later
  // request (and a retried call_once hangs under TSan).
  struct Once {
    std::mutex mu;
    bool done = false;           // guarded by mu
    std::exception_ptr error;    // guarded by mu
  };
  template <typename Build>
  static void build_once(Once& once, Build&& build);

  std::function<Graph()> build_;
  std::uint32_t concentration_;
  TaskPool* pool_;
  Once graph_once_, tables_once_, next_hops_once_, spectra_once_, cell_once_;
  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const routing::Tables> tables_;
  std::shared_ptr<const routing::NextHopIndex> next_hops_;
  std::shared_ptr<const Spectra> spectra_;
  std::shared_ptr<const routing::CellIndex> cell_;
};

class ArtifactCache {
 public:
  /// Every entry registered or adopted here builds on `pool` (null: serially).
  explicit ArtifactCache(TaskPool* pool = nullptr) : pool_(pool) {}

  /// Register a topology under `name`; `build` is deferred until the first
  /// scenario needs the graph.  Re-registering a name replaces the entry
  /// (and drops the old artifacts).
  void register_topology(std::string name, std::function<Graph()> build,
                         std::uint32_t concentration = 8);

  /// Install a prebuilt graph and spectra under `name` (snapshot restore).
  /// Re-adopting a name replaces the entry, same as register_topology.
  void adopt(std::string name, std::shared_ptr<const Graph> graph,
             std::shared_ptr<const Spectra> spectra, std::uint32_t concentration);

  /// Shared artifact set for `name`; throws std::out_of_range if unknown.
  [[nodiscard]] std::shared_ptr<Artifacts> get(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  TaskPool* pool_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Artifacts>> entries_;
};

}  // namespace sfly::engine
