#pragma once
/// \file engine.hpp
// Parallel experiment engine (see DESIGN.md §6).
//
// The paper's figures are sweeps: topology x routing x traffic x failure
// rate x seed, each point independent given its seed.  The engine
// evaluates a batch of such points across a TaskPool through one
// run()/run_stream() template over the scenario type (analytic Scenarios
// and simulated SimScenarios alike; only evaluate() is overloaded per
// kind), shares expensive per-topology artifacts (graph, routing tables,
// spectra) through an ArtifactCache, and streams results to ResultSinks
// (engine/sink.hpp: CSV, JSONL).
//
// Determinism: every scenario is evaluated from explicit seeds and writes
// only its own Result slot, so a batch returns bitwise-identical metrics
// whether run on 1 thread or many.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/artifact_cache.hpp"
#include "engine/scenario.hpp"
#include "sim/simulator.hpp"

namespace sfly::engine {

class ResultSink;

struct EngineConfig {
  unsigned threads = 0;  // 0 = hardware_threads()
  /// Base simulator knobs (bandwidth, latencies, buffers).  Per-scenario
  /// fields (algo, vcs, seed, concentration, packet size) are overridden
  /// from the Scenario and its topology registration.
  sim::SimConfig sim;
};

/// Knobs for one streamed batch.
struct StreamOptions {
  /// Result::index of batch[0].  A campaign running one shard (or the
  /// un-journaled suffix of a resumed batch) passes the slice's offset
  /// so every row keeps its position in the full batch.
  std::size_t index_base = 0;
  /// Graceful-stop probe, polled between in-order deliveries.  Once it
  /// returns true no further scenarios are submitted; everything
  /// already in flight is drained and delivered, so the batch ends on
  /// a clean journal prefix.  Empty = never stop.
  std::function<bool()> stop_after;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});

  /// Register a topology for scenarios to reference by name.
  void register_topology(std::string name, std::function<Graph()> build,
                         std::uint32_t concentration = 8);

  [[nodiscard]] ArtifactCache& artifacts() { return cache_; }
  [[nodiscard]] const ArtifactCache& artifacts() const { return cache_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

  /// Evaluate one scenario on the calling thread (no pool).  A scenario
  /// that throws (unknown topology, disconnected graph, ...) yields
  /// ok=false with the error text.  A SimScenario runs a synthetic
  /// pattern or Ember motif through a core::Network built over the
  /// cache's shared routing tables (one all-pairs build per topology).
  [[nodiscard]] Result evaluate(const Scenario& s, std::size_t index = 0);
  [[nodiscard]] SimResult evaluate(const SimScenario& s,
                                   std::size_t index = 0);

  /// Evaluate a batch (Scenario or SimScenario).  Results arrive in
  /// batch order; a failing scenario yields its ok=false row instead of
  /// aborting the batch.  This is run_stream() with a CollectSink.
  template <class Scen>
  [[nodiscard]] std::vector<RowOf<Scen>> run(const std::vector<Scen>& batch);

  /// Streaming evaluation: fan the batch across the pool, but deliver
  /// each result to every sink strictly in batch order as workers complete
  /// them (a bounded reorder window keeps memory O(threads), not
  /// O(batch)).  Sinks are invoked from the calling thread only.  A
  /// SimScenario batch first builds the routing tables and next-hop
  /// index of every pristine scenario's topology across the pool, before
  /// any scenario starts (timed into artifact_build_seconds()).
  /// \return the number of results delivered — less than batch.size()
  ///         only when opts.stop_after fired.
  template <class Scen>
  std::size_t run_stream(const std::vector<Scen>& batch,
                         const std::vector<ResultSink*>& sinks,
                         const StreamOptions& opts = {});
  /// run_stream() under its old simulation-only name, kept as a forward
  /// for its last caller, perfbench/src/campaign_pass.hpp:77.
  std::size_t run_sims_stream(const std::vector<SimScenario>& batch,
                              const std::vector<ResultSink*>& sinks) {
    return run_stream(batch, sinks);
  }

  /// Wall-clock seconds run_stream has spent pre-building shared
  /// routing artifacts, summed over every call on this engine.  Campaign
  /// timing reads it to keep construction out of evaluation time.
  [[nodiscard]] double artifact_build_seconds() const {
    return static_cast<double>(build_ns_.load()) * 1e-9;
  }

 private:
  void prebuild(const std::vector<SimScenario>& batch, TaskPool& pool);

  EngineConfig cfg_;
  ArtifactCache cache_;
  std::atomic<std::int64_t> build_ns_{0};
};

}  // namespace sfly::engine
