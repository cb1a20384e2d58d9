#include "core/spectralfly_net.hpp"

namespace sfly::core {

Network::Network(std::string name, std::shared_ptr<const Graph> g,
                 NetworkOptions opts,
                 std::shared_ptr<const routing::Tables> tables,
                 std::shared_ptr<const routing::NextHopIndex> index)
    : name_(std::move(name)),
      topology_(std::move(g)),
      opts_(opts),
      tables_(std::move(tables)),
      index_(std::move(index)) {
  if (!tables_)
    tables_ = std::make_shared<routing::Tables>(routing::Tables::build(*topology_));
  if (opts_.vcs == 0)
    opts_.vcs = routing::required_vcs(opts_.routing, tables_->diameter());
}

Network Network::spectralfly(const topo::LpsParams& params, const NetworkOptions& opts) {
  return Network(params.name(),
                 std::make_shared<const Graph>(topo::lps_graph(params)), opts);
}

Network Network::from_graph(std::string name, Graph topology, const NetworkOptions& opts) {
  return Network(std::move(name),
                 std::make_shared<const Graph>(std::move(topology)), opts);
}

Network Network::from_shared(std::string name,
                             std::shared_ptr<const Graph> topology,
                             std::shared_ptr<const routing::Tables> tables,
                             std::shared_ptr<const routing::NextHopIndex> index,
                             const NetworkOptions& opts) {
  return Network(std::move(name), std::move(topology), opts, std::move(tables),
                 std::move(index));
}

const Spectra& Network::spectra() const {
  if (!spectra_) spectra_ = std::make_unique<Spectra>(compute_spectra(*topology_));
  return *spectra_;
}

std::shared_ptr<const routing::NextHopIndex> Network::next_hops() const {
  if (!index_)
    index_ = std::make_shared<const routing::NextHopIndex>(
        routing::NextHopIndex::build(*topology_, *tables_));
  return index_;
}

std::unique_ptr<sim::Simulator> Network::make_simulator(std::uint64_t seed) const {
  sim::SimConfig cfg = opts_.sim;
  cfg.concentration = opts_.concentration;
  cfg.algo = opts_.routing;
  cfg.vcs = opts_.vcs;
  cfg.seed = seed;
  return std::make_unique<sim::Simulator>(*topology_, *tables_, next_hops(), cfg);
}

}  // namespace sfly::core
