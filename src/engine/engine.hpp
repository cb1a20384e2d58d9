#pragma once
/// \file engine.hpp
// Parallel experiment engine (see DESIGN.md §6).
//
// The paper's figures are sweeps: topology x routing x traffic x failure
// rate x seed, each point independent given its seed.  The engine
// evaluates a batch of such points across a TaskPool — analytic
// Scenarios through run()/run_stream()/evaluate(), simulated
// SimScenarios through run_sims()/run_sims_stream()/evaluate_sim() —
// shares expensive per-topology artifacts (graph, routing tables,
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

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});

  /// Register a topology for scenarios to reference by name.
  void register_topology(std::string name, std::function<Graph()> build,
                         std::uint32_t concentration = 8);

  [[nodiscard]] ArtifactCache& artifacts() { return cache_; }
  [[nodiscard]] const ArtifactCache& artifacts() const { return cache_; }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

  /// Evaluate a batch.  Results arrive in batch order; a scenario that
  /// throws (unknown topology, disconnected graph, ...) yields ok=false
  /// with the error text instead of aborting the batch.
  [[nodiscard]] std::vector<Result> run(const std::vector<Scenario>& batch);

  /// Evaluate a simulation campaign: each SimScenario runs a synthetic
  /// pattern or Ember motif through a core::Network built over the
  /// cache's shared routing tables (one all-pairs build per topology).
  /// Same batch semantics and determinism contract as run().
  [[nodiscard]] std::vector<SimResult> run_sims(
      const std::vector<SimScenario>& batch);

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

  /// Streaming evaluation: fan the batch across the pool, but deliver
  /// each result to every sink strictly in batch order as workers complete
  /// them (a bounded reorder window keeps memory O(threads), not
  /// O(batch)).  run()/run_sims() are this with a CollectSink.  Sinks
  /// are invoked from the calling thread only.  run_sims_stream first
  /// builds the routing tables and next-hop index of every pristine
  /// scenario's topology across the pool, before any scenario starts
  /// (timed into artifact_build_seconds()).
  /// \return the number of results delivered — less than batch.size()
  ///         only when opts.stop_after fired.
  std::size_t run_stream(const std::vector<Scenario>& batch,
                         const std::vector<ResultSink*>& sinks);
  std::size_t run_stream(const std::vector<Scenario>& batch,
                         const std::vector<ResultSink*>& sinks,
                         const StreamOptions& opts);
  std::size_t run_sims_stream(const std::vector<SimScenario>& batch,
                              const std::vector<ResultSink*>& sinks);
  std::size_t run_sims_stream(const std::vector<SimScenario>& batch,
                              const std::vector<ResultSink*>& sinks,
                              const StreamOptions& opts);

  /// Evaluate one scenario on the calling thread (no pool).
  [[nodiscard]] Result evaluate(const Scenario& s, std::size_t index = 0);
  [[nodiscard]] SimResult evaluate_sim(const SimScenario& s,
                                       std::size_t index = 0);

  /// Wall-clock seconds run_sims_stream has spent pre-building shared
  /// routing artifacts, summed over every call on this engine.  Campaign
  /// timing reads it to keep construction out of evaluation time.
  [[nodiscard]] double artifact_build_seconds() const {
    return static_cast<double>(build_ns_.load()) * 1e-9;
  }

 private:
  EngineConfig cfg_;
  ArtifactCache cache_;
  std::atomic<std::int64_t> build_ns_{0};
};

}  // namespace sfly::engine
