#pragma once
/// \file campaign.hpp
/// Declarative campaign layer (see DESIGN.md §6 and docs/CAMPAIGNS.md).
///
/// The paper's evaluation is a grid of sweeps — topology x routing x
/// traffic x failure x seed.  A CampaignBuilder *declares* the sweep axes
/// (in nesting order: the first declared axis is the outermost loop) plus
/// per-point hooks, and the engine owns expansion into Scenario (analytic)
/// or SimScenario (simulation) batches: no bench hand-rolls nested loops.
/// Every batch of either kind runs through one replay-then-stream path
/// (campaign.cpp), with ScenarioKind (engine/scenario.hpp) supplying
/// what differs.
/// A Campaign strings named phases (grids) over one Engine, supports
/// dry-run planning (scenario counts, axis shapes, artifact builds —
/// nothing is evaluated), and executes phases through the engine's
/// streaming sinks.  AdaptiveSweep adds the Fig. 5 shape: a point grid
/// whose per-point trial count is scheduled in waves under the paper's
/// CoV stopping rule.
///
/// Execution takes an optional RunControl — the checkpoint/restart
/// surface: resume from a `--json` journal (engine/journal.hpp), run
/// one `--shard I/N` slice of every batch, stop gracefully on a
/// `--max-seconds` wall-clock budget.
///
/// Determinism: expansion is a pure function of the declaration, and
/// execution inherits the engine's serial==parallel bitwise contract —
/// which extends across kill/resume cycles and shard splits.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "topo/factory.hpp"

namespace sfly::engine {

class CampaignJournal;
class BatchRunner;

/// Install SIGTERM/SIGINT handlers that request a graceful campaign
/// stop: the run finishes at the next row boundary, sinks flush, the
/// journal stays resumable, and the bench exits 75 — exactly the
/// --max-seconds path, but operator-initiated.  A second request while
/// the first is still draining force-exits 128+sig (the escape hatch
/// when a scenario evaluation is stuck): a different signal, or the same
/// one more than 250 ms after the first.  A quicker repeat of the same
/// signal is one request delivered twice (GNU timeout signals both its
/// child and its process group).  Idempotent.
void install_stop_signal_handlers();
/// The signal requesting a graceful stop (0 = none yet).  Folded into
/// RunControl::over_budget(), so every budget-stop code path — engine
/// submission windows, dispatcher fleets, worker slices — honors it.
[[nodiscard]] int stop_signal_seen();

/// Execution controls + outcome for Campaign::run / AdaptiveSweep::run —
/// the checkpoint/restart surface behind `--resume`, `--shard` and
/// `--max-seconds` (see docs/CAMPAIGNS.md §Resume).  One RunControl can
/// span several campaigns/sweeps in a process (e.g. fig5's two size
/// classes): the journal cursor and the wall-clock budget carry across.
struct RunControl {
  RunControl() : start(std::chrono::steady_clock::now()) {}

  /// Journal of a previous (killed or budget-stopped) run over the SAME
  /// declaration: rows are consumed positionally, validated against the
  /// expanded scenarios, replayed into collecting sinks, and skipped by
  /// the evaluator.  Null = fresh run.
  const CampaignJournal* journal = nullptr;
  /// Shard `shard_index` of `shard_count`: each batch is restricted to
  /// its contiguous shard_range() slice (rows keep their full-batch
  /// indices).  Shard journals merge back to the unsharded byte stream
  /// with CampaignJournal::merge.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Wall-clock budget in seconds, measured from `start`; 0 = unlimited.
  /// When exceeded, in-flight scenarios drain, sinks flush, and run()
  /// returns with `stopped` set — the journal ends on a clean batch
  /// prefix a later `--resume` continues from.  Every invocation makes
  /// progress (at least one submission window) even under a tiny budget.
  double max_seconds = 0.0;
  /// Wall-clock origin for max_seconds (defaults to construction time,
  /// i.e. roughly process start when built by StandardOptions).
  std::chrono::steady_clock::time_point start;
  /// Pluggable batch evaluator (engine/dispatch.hpp): when set, every
  /// batch is handed here instead of Engine::run_stream — the `--workers`
  /// multi-process dispatcher on the parent side, the socket-fed slice
  /// evaluator on the worker side.  Non-owning; null = evaluate in-process.
  BatchRunner* runner = nullptr;
  /// Suppress bench-side stderr notices (replay/budget epilogues).  Set
  /// for dispatch workers (`--worker-fd` children share the parent's
  /// stderr; `--connect` joiners are its remote hands): the parent
  /// reports once for the whole fleet.
  bool quiet = false;

  // --- outcome ---------------------------------------------------------
  bool stopped = false;        ///< budget fired before completion
  std::size_t replayed = 0;    ///< rows skipped via the journal
  std::size_t evaluated = 0;   ///< scenarios actually evaluated this run
  std::size_t journal_cursor = 0;  ///< segments consumed (internal state)

  [[nodiscard]] bool over_budget() const {
    if (stop_signal_seen() != 0) return true;
    return max_seconds > 0.0 &&
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
                   .count() >= max_seconds;
  }

  /// Journal segments never reached by the run(s) sharing this control.
  /// Nonzero after a *completed* (non-stopped) run means the journal was
  /// written under different flags whose early batches happened to
  /// coincide — the caller must treat it as a hard error, because fresh
  /// rows have been appended after the stale tail.
  [[nodiscard]] std::size_t unconsumed_segments() const;
};

/// One topology axis value (topo/factory.hpp): the artifact-cache
/// registration key, its deferred builder and concentration, and the
/// vertices/radix metadata topology filters read.
using topo::TopologySpec;

/// One motif axis value: display name + factory (motifs are stateful, so
/// every evaluation constructs a fresh instance).
struct MotifSpec {
  std::string name;
  std::function<std::unique_ptr<sim::Motif>()> factory;
};

/// Declares one sweep grid.  Axis setters append in call order; the first
/// declared axis is the outermost expansion loop (row-major).  The proto
/// scenario carries every non-axis knob.
class CampaignBuilder {
 public:
  CampaignBuilder();

  /// The base scenario every grid point starts from (kind, structure /
  /// layout knobs, workload defaults, base seed, ...).
  [[nodiscard]] Scenario& proto() { return proto_; }
  [[nodiscard]] const Scenario& proto() const { return proto_; }

  // --- axes (call order = nesting order, first call outermost) ---------
  CampaignBuilder& kinds(std::vector<Kind> v);
  /// `keep` selects specs by their metadata (no graph is built) and
  /// `limit` caps how many are kept; both are optional.
  CampaignBuilder& topologies(std::vector<TopologySpec> v,
                              std::function<bool(const TopologySpec&)> keep = {},
                              std::size_t limit = 0);
  CampaignBuilder& algos(std::vector<routing::Algo> v);
  CampaignBuilder& patterns(std::vector<sim::Pattern> v);
  CampaignBuilder& motifs(std::vector<MotifSpec> v);
  CampaignBuilder& loads(std::vector<double> v);
  CampaignBuilder& vc_overrides(std::vector<std::uint32_t> v);
  CampaignBuilder& placements(std::vector<sim::PlacementPolicy> v);
  CampaignBuilder& failure_fractions(std::vector<double> v);
  /// Mid-run churn timelines (bench_churn's availability axis); values
  /// label as churn_label(spec) — "none", "2L", "1R~", ...
  CampaignBuilder& churns(std::vector<ChurnSpec> v);
  CampaignBuilder& restarts(std::vector<int> v);  // bisection restart budgets
  CampaignBuilder& seeds(std::vector<std::uint64_t> v);
  CampaignBuilder& seed_range(std::uint64_t base, std::size_t count);

  // --- per-point hook ---------------------------------------------------
  /// Mutate every expanded point after its axis values are applied;
  /// multiple hooks run in registration order.
  CampaignBuilder& each(std::function<void(Scenario&)> fn);

  // --- expansion -------------------------------------------------------
  /// Register every topology axis value carrying a builder with `eng`.
  void register_with(Engine& eng) const;
  [[nodiscard]] std::vector<Scenario> expand() const;
  /// The same points as SimScenarios, labeled with the joined values of
  /// the labeled axes (motif name, churn level; empty if none).
  [[nodiscard]] std::vector<SimScenario> expand_sims() const;

  // --- shape -----------------------------------------------------------
  [[nodiscard]] std::size_t grid_size() const;  // product of axis sizes
  [[nodiscard]] const std::vector<std::size_t>& axis_sizes() const {
    return sizes_;
  }
  /// "pattern(4) x load(6) x topology(4)" — the declared nesting order.
  [[nodiscard]] std::string shape() const;
  /// Topology axis values after keep/limit (declaration order); empty
  /// if the grid has no topology axis (proto names the topology).
  [[nodiscard]] std::vector<std::string> topology_names() const;
  /// The kept TopologySpecs themselves (metadata drives result
  /// tables, e.g. the design-space sweep's vertices/radix columns).
  [[nodiscard]] const std::vector<TopologySpec>& topology_specs() const {
    return topo_specs_;
  }

 private:
  struct Axis {
    std::string name;
    std::vector<std::function<void(Scenario&)>> setters;
    std::vector<std::string> labels;  // per-value display names
    bool labeled = false;             // labels feed SimScenario::label
  };
  void add_axis(Axis axis);
  void visit_points(
      const std::function<void(Scenario&&, std::string&&)>& emit) const;

  Scenario proto_;
  std::vector<Axis> axes_;
  std::vector<std::size_t> sizes_;
  std::vector<TopologySpec> topo_specs_;
  std::vector<std::function<void(Scenario&)>> hooks_;
};

/// What a run did in one phase (or adaptive sweep): the engine's artifact
/// pre-build time, the evaluation time with that pre-build excluded, and
/// the simulator work of the ok sim rows it evaluated.  Journal-replayed
/// rows add no work, so events / eval_seconds is this run's rate.
/// events_by_kind and noops_by_kind count only rows this process
/// simulated itself.
struct RunTally {
  double build_seconds = 0.0;
  double eval_seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t messages = 0;
  std::array<std::uint64_t, sim::kEventKinds> events_by_kind{};
  std::array<std::uint64_t, sim::kEventKinds> noops_by_kind{};
};

/// One named grid inside a Campaign: the builder, its expanded batch of
/// one scenario kind, and (after Campaign::run) the collected results
/// with coordinate access.  The typed accessors name the kind a caller
/// expects; asking for the other kind throws std::bad_variant_access.
class Phase {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool deferred() const { return static_cast<bool>(make_); }
  /// Scenario count: exact once expanded, the declared estimate before a
  /// deferred phase materializes.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] const CampaignBuilder& grid() const { return grid_; }
  [[nodiscard]] const std::vector<Scenario>& scenarios() const {
    return std::get<Batch<Scenario>>(batch_).scenarios;
  }
  [[nodiscard]] const std::vector<SimScenario>& sims() const {
    return std::get<Batch<SimScenario>>(batch_).scenarios;
  }
  [[nodiscard]] const std::vector<Result>& results() const {
    return std::get<Batch<Scenario>>(batch_).results;
  }
  [[nodiscard]] const std::vector<SimResult>& sim_results() const {
    return std::get<Batch<SimScenario>>(batch_).results;
  }

  /// Row-major coordinate access in axis declaration order; throws
  /// std::logic_error before the phase has run to completion.
  [[nodiscard]] const Result& at(
      std::initializer_list<std::size_t> coords) const {
    return results()[flat_index(coords, results().size())];
  }
  [[nodiscard]] const SimResult& sim_at(
      std::initializer_list<std::size_t> coords) const {
    return sim_results()[flat_index(coords, sim_results().size())];
  }

  [[nodiscard]] const RunTally& tally() const { return tally_; }

 private:
  friend class Campaign;
  template <class Scen>
  struct Batch {
    std::vector<Scen> scenarios;
    std::vector<RowOf<Scen>> results;
  };

  Phase(std::string name, CampaignBuilder grid, bool sim);
  Phase(std::string name, std::size_t estimate,
        std::function<CampaignBuilder(Engine&)> make);
  void expand_into_batches();
  [[nodiscard]] std::size_t flat_index(
      std::initializer_list<std::size_t> coords, std::size_t have) const;

  std::string name_;
  CampaignBuilder grid_;
  std::size_t estimate_ = 0;
  std::function<CampaignBuilder(Engine&)> make_;  // deferred phases only
  std::variant<Batch<Scenario>, Batch<SimScenario>> batch_;
  RunTally tally_;
};

/// A bench's whole declared evaluation: named phases over one Engine.
/// Phases execute in declaration order; every result streams through the
/// caller's sinks (begin/end bracket each phase's batch) and also
/// collects into the phase for indexed post-processing.
class Campaign {
 public:
  Campaign(Engine& eng, std::string name);

  /// Add an analytic (Scenario) phase; topologies register immediately.
  Phase& analytic(std::string name, CampaignBuilder grid);
  /// Add a simulation (SimScenario) phase; topologies register immediately.
  Phase& sims(std::string name, CampaignBuilder grid);
  /// Add a simulation phase whose grid can only be built at execution
  /// time (axes depending on earlier phases' artifacts, e.g. a VC sweep
  /// derived from the cached tables' diameter).  `estimate` feeds the
  /// dry-run plan.
  Phase& sims_deferred(std::string name, std::size_t estimate,
                       std::function<CampaignBuilder(Engine&)> make);

  /// Print the expanded plan — per-phase scenario counts, axis shapes,
  /// and new topology artifact builds — without evaluating anything.
  void print_plan(std::FILE* out = stdout) const;

  /// Execute every phase in declaration order.
  void run(const std::vector<ResultSink*>& sinks = {});
  /// Execute under a RunControl: resume from a journal, restrict every
  /// batch to one shard, and/or stop gracefully on a wall-clock budget.
  /// Journal/declaration mismatches throw std::runtime_error.  After a
  /// stopped or sharded run the phases hold partial result vectors, so
  /// coordinate access (Phase::at) is off the table — stream sinks are
  /// the output surface for those runs.
  void run(const std::vector<ResultSink*>& sinks, RunControl& ctl);

  [[nodiscard]] Phase& phase(const std::string& name);
  /// All phases in declaration order (the --phase-json record walks them).
  [[nodiscard]] const std::vector<std::unique_ptr<Phase>>& phases() const {
    return phases_;
  }
  [[nodiscard]] Engine& engine() { return eng_; }
  [[nodiscard]] const Engine& engine() const { return eng_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  Engine& eng_;
  std::string name_;
  std::vector<std::unique_ptr<Phase>> phases_;
};

// ---------------------------------------------------------------------------
// Adaptive trial scheduling (the Fig. 5 shape).

/// Prefix selected by the paper's batch/CoV stopping rule (footnote 1)
/// over per-trial metric values: batches of size len/10; converged when
/// the CoV of the 10 batch means drops below `cov_target`.  `converged`
/// distinguishes the rule firing from running out of values — the wave
/// scheduler needs that distinction even when both return every value.
struct CovPrefix {
  std::size_t use = 0;
  bool converged = false;
};

[[nodiscard]] CovPrefix cov_prefix(const std::vector<double>& vals,
                                   double cov_target);

/// A point grid (from a CampaignBuilder) where each point contributes
/// seeded trials until the CoV rule converges or its trial budget is
/// exhausted.  Fixed rules: a point's series keeps its `ok && connected`
/// results, the CoV metric is `mean_hops`, and a pristine point (failure
/// fraction 0, deterministic) runs once while every other point runs up
/// to `max_trials`.  Trials are scheduled in waves (each point advances
/// to its next checkpoint: 10, 100, 1000, ... trials), every wave runs as
/// one engine batch, and the rule retires points between waves —
/// converged points stop consuming trials while unconverged ones keep the
/// engine's parallelism.  Trial seeds derive only from (seed_base, trial
/// number), never the wave split, so results are bitwise-identical at
/// any thread count and to the precompute-everything schedule.
class AdaptiveSweep {
 public:
  struct Config {
    /// Journal identity: the "campaign" field of this sweep's batch
    /// headers.  Distinguishes multiple sweeps in one process (fig5's
    /// two size classes) when resuming.
    std::string name = "adaptive";
    std::uint64_t max_trials = 10;
    std::uint64_t seed_base = 9177;
    double cov_target = 0.10;
  };

  struct PointState {
    Scenario point;               // trial template (seed overwritten per trial)
    std::size_t scheduled = 0;    // trials submitted so far
    bool converged = false;       // rule fired or budget exhausted
    std::vector<Result> kept;     // ok && connected results, trial order
    std::vector<double> metric_vals;  // their mean_hops
  };

  AdaptiveSweep(Engine& eng, CampaignBuilder points, Config cfg);
  AdaptiveSweep(Engine& eng, CampaignBuilder points)
      : AdaptiveSweep(eng, std::move(points), Config{}) {}

  /// Wave loop; each wave's results stream through `sinks` in batch order.
  void run(const std::vector<ResultSink*>& sinks = {});
  /// Wave loop under a RunControl (resume + wall-clock budget).  Journal
  /// replay feeds the CoV rule the exact historical values (%.17g rows
  /// round-trip bitwise), so the reconstructed wave schedule — and hence
  /// the byte stream — matches an uninterrupted run.  Sharding is
  /// rejected: wave composition depends on every point's results, which
  /// no single shard holds.
  void run(const std::vector<ResultSink*>& sinks, RunControl& ctl);

  [[nodiscard]] const std::vector<PointState>& points() const {
    return points_;
  }
  /// Evaluation time and work across all waves so far.
  [[nodiscard]] const RunTally& tally() const { return tally_; }
  /// CoV-selected prefix length for a point's kept series.
  [[nodiscard]] std::size_t converged_prefix(std::size_t point) const;

  /// Dry-run plan: point grid shape, wave schedule, worst-case trials.
  void print_plan(std::FILE* out = stdout) const;

 private:
  Engine& eng_;
  CampaignBuilder grid_;
  Config cfg_;
  std::vector<PointState> points_;
  RunTally tally_;
  std::size_t waves_ = 0;  // waves run or replayed; names the next batch

  /// The point's trial budget: 1 when pristine, else max_trials.
  [[nodiscard]] std::uint64_t trial_cap(const Scenario& point) const {
    return point.failure_fraction == 0.0 ? 1 : cfg_.max_trials;
  }
};

}  // namespace sfly::engine
