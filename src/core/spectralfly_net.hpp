#pragma once
// User-facing SpectralFly API: a fully-specified interconnect = router
// topology + endpoint concentration + routing algorithm, with the
// structural analytics and the packet-level simulator wired up behind one
// object.  This is the "core library" entry point; the quickstart example
// is four calls against this header.

#include <cstdint>
#include <memory>
#include <string>

#include "graph/graph.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "sim/simulator.hpp"
#include "spectral/spectra.hpp"
#include "topo/lps.hpp"

namespace sfly::core {

struct NetworkOptions {
  std::uint32_t concentration = 8;                  // endpoints per router
  routing::Algo routing = routing::Algo::kMinimal;  // Section V default
  /// 0 = size the VC pool per the paper (diameter+1 / 2*diameter+1).
  std::uint32_t vcs = 0;
  sim::SimConfig sim;  // bandwidth/latency knobs; algo/vcs fields overridden
};

/// An immutable, analysis-ready interconnect instance.  The topology is
/// held by shared_ptr (as the routing tables and next-hop index always
/// were), so Networks built over an engine::ArtifactCache share one graph
/// across every scenario instead of copying the adjacency per sim run.
class Network {
 public:
  /// Build a SpectralFly network over LPS(p,q).
  static Network spectralfly(const topo::LpsParams& params,
                             const NetworkOptions& opts = {});

  /// Wrap any router topology (SlimFly, DragonFly, ... or your own).
  static Network from_graph(std::string name, Graph topology,
                            const NetworkOptions& opts = {});

  /// Fully shared construction: graph, tables, and (optionally) next-hop
  /// index all come from the caller — nothing is copied or rebuilt.  This
  /// is the engine's per-scenario path; `index` may be null, in which case
  /// it is built lazily on the first make_simulator call.
  static Network from_shared(
      std::string name, std::shared_ptr<const Graph> topology,
      std::shared_ptr<const routing::Tables> tables,
      std::shared_ptr<const routing::NextHopIndex> index = nullptr,
      const NetworkOptions& opts = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Graph& topology() const { return *topology_; }
  [[nodiscard]] std::shared_ptr<const Graph> topology_ptr() const {
    return topology_;
  }
  [[nodiscard]] const routing::Tables& tables() const { return *tables_; }
  [[nodiscard]] std::uint32_t num_routers() const { return topology_->num_vertices(); }
  [[nodiscard]] std::uint32_t num_endpoints() const {
    return num_routers() * opts_.concentration;
  }
  [[nodiscard]] std::uint32_t diameter() const { return tables_->diameter(); }
  [[nodiscard]] const NetworkOptions& options() const { return opts_; }

  /// Spectral quantities (lambda, mu1, Ramanujan certificate) — computed
  /// lazily and cached.
  [[nodiscard]] const Spectra& spectra() const;

  /// The precomputed minimal next-hop index — built lazily and cached
  /// unless construction supplied a shared one.
  [[nodiscard]] std::shared_ptr<const routing::NextHopIndex> next_hops() const;

  /// A ready-to-run simulator instance for this network (fresh state each
  /// call; the topology, tables, and next-hop index are shared).
  [[nodiscard]] std::unique_ptr<sim::Simulator> make_simulator(
      std::uint64_t seed = 1) const;

 private:
  Network(std::string name, std::shared_ptr<const Graph> g, NetworkOptions opts,
          std::shared_ptr<const routing::Tables> tables = nullptr,
          std::shared_ptr<const routing::NextHopIndex> index = nullptr);

  std::string name_;
  std::shared_ptr<const Graph> topology_;
  NetworkOptions opts_;
  std::shared_ptr<const routing::Tables> tables_;
  mutable std::shared_ptr<const routing::NextHopIndex> index_;
  mutable std::unique_ptr<Spectra> spectra_;
};

}  // namespace sfly::core
