#include "engine/artifact_cache.hpp"

#include <stdexcept>
#include <utility>

namespace sfly::engine {

template <typename Build>
void Artifacts::build_once(Once& once, Build&& build) {
  std::lock_guard lock(once.mu);
  if (!once.done) {
    once.done = true;
    try {
      build();
    } catch (...) {
      once.error = std::current_exception();
    }
  }
  if (once.error) std::rethrow_exception(once.error);
}

std::shared_ptr<const Graph> Artifacts::graph() {
  // The `if (x_) return` guards keep the builders from clobbering
  // components that the pre-materialized (snapshot) constructor already
  // installed.
  build_once(graph_once_, [this] {
    if (graph_) return;
    // The builder (and any graph copy captured in its closure) is dead
    // weight once it has run, built or thrown; don't keep it alive for
    // the engine's lifetime.
    const auto build = std::exchange(build_, nullptr);
    graph_ = std::make_shared<const Graph>(build());
  });
  return graph_;
}

std::shared_ptr<const routing::Tables> Artifacts::tables(TaskPool* pool) {
  build_once(tables_once_, [this, pool] {
    if (tables_) return;
    tables_ = std::make_shared<const routing::Tables>(
        routing::Tables::build(*graph(), pool));
  });
  return tables_;
}

std::shared_ptr<const routing::NextHopIndex> Artifacts::next_hops(TaskPool* pool) {
  build_once(next_hops_once_, [this, pool] {
    if (next_hops_) return;
    next_hops_ = std::make_shared<const routing::NextHopIndex>(
        routing::NextHopIndex::build(*graph(), *tables(pool), pool));
  });
  return next_hops_;
}

std::shared_ptr<const routing::CellIndex> Artifacts::cell_index(TaskPool* pool) {
  build_once(cell_once_, [this, pool] {
    cell_ = std::make_shared<const routing::CellIndex>(
        routing::CellIndex::build(*graph(), {}, pool));
  });
  return cell_;
}

std::shared_ptr<const Spectra> Artifacts::spectra() {
  build_once(spectra_once_, [this] {
    if (spectra_) return;
    spectra_ = std::make_shared<const Spectra>(compute_spectra(*graph()));
  });
  return spectra_;
}

Artifacts::Footprint Artifacts::footprint() const {
  Footprint f;
  if (graph_) f.graph_bytes = graph_->memory_bytes();
  if (tables_) f.tables_bytes = tables_->memory_bytes();
  if (next_hops_) f.next_hops_bytes = next_hops_->memory_bytes();
  if (spectra_) f.spectra_bytes = sizeof(Spectra);
  if (cell_) f.cells_bytes = cell_->memory_bytes();
  return f;
}

core::Network Artifacts::make_network(std::string name, core::NetworkOptions opts) {
  opts.concentration = concentration_;
  return core::Network::from_shared(std::move(name), graph(), tables(),
                                    next_hops(), opts);
}

void ArtifactCache::register_topology(std::string name, std::function<Graph()> build,
                                      std::uint32_t concentration) {
  auto entry = std::make_shared<Artifacts>(std::move(build), concentration);
  std::unique_lock lock(mu_);
  entries_[std::move(name)] = std::move(entry);
}

void ArtifactCache::adopt(std::string name, std::shared_ptr<Artifacts> artifacts) {
  std::unique_lock lock(mu_);
  entries_[std::move(name)] = std::move(artifacts);
}

std::shared_ptr<Artifacts> ArtifactCache::get(const std::string& name) const {
  std::unique_lock lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::out_of_range("unknown topology: " + name);
  return it->second;
}

bool ArtifactCache::contains(const std::string& name) const {
  std::unique_lock lock(mu_);
  return entries_.count(name) != 0;
}

std::vector<std::string> ArtifactCache::names() const {
  std::unique_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

}  // namespace sfly::engine
