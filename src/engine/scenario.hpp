#pragma once
/// \file scenario.hpp
/// Experiment-engine vocabulary, one type pair per kind of sweep.
///
/// Analytic sweeps (Figs. 4-5, Tables I-II, Fig. 11's layouts) use
/// Scenario/Result: a Scenario names one point of the structural space
/// (topology x kind x failure rate x seed) and a Result carries every
/// metric an analytic kind can produce.
///
/// Simulation sweeps (Figs. 6-10, the discrepancy placement probe, churn)
/// use SimScenario/SimResult: the same topology key and determinism
/// contract, but a workload description rich enough for both synthetic
/// patterns and Ember motifs, evaluated through the core Network facade
/// so engine runs and the seed benches share one code path.
///
/// The batch path over them is written once: Engine::run / run_stream,
/// the sinks, BatchRunner, the journal and Campaign phases are templates
/// (or one type-erased batch) over the scenario type, and
/// ScenarioKind<Scen> (end of this file) holds the few things that
/// really differ between the kinds.  Both row types serialize losslessly
/// to CSV and JSONL rows (engine/sink.hpp); the JSONL form parses back
/// bitwise (ScenarioKind::parse), which is what makes a `--json` stream
/// a resume checkpoint.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "graph/failures.hpp"
#include "layout/cabinets.hpp"
#include "routing/policy.hpp"
#include "sim/motifs.hpp"
#include "sim/traffic.hpp"

namespace sfly::engine {

/// What to evaluate for an analytic scenario.  The numeric values are
/// folded into every journal's batch fingerprint (DeclPins.* pin them),
/// so they never change; 2 stays unused.
enum class Kind {
  kStructure = 0,  // distances / girth / bisection (Figs. 4-5, Table I)
  kSpectral = 1,   // lambda / mu1 / Ramanujan certificate (Table I)
  kLayout = 3,     // machine-room embedding: wires / power (Fig. 11, Table II)
};

[[nodiscard]] const char* kind_name(Kind k);

/// One simulated workload: either a synthetic traffic-pattern point or an
/// Ember motif.  CampaignBuilder's axes write it into the grid's Scenario
/// points and expand_sims() copies it whole into each SimScenario, so the
/// two cannot drift field by field.  Motifs are stateful endpoint
/// machines, so the workload carries a *factory* and every evaluation
/// builds a fresh instance; a non-null factory selects the motif path.
struct Workload {
  sim::Pattern pattern = sim::Pattern::kRandom;
  double offered_load = 0.5;
  std::uint32_t nranks = 0;  // 0 = largest power of two <= #endpoints
  std::uint32_t messages_per_rank = 16;
  std::uint32_t message_bytes = 4096;
  sim::PlacementPolicy placement = sim::PlacementPolicy::kRandom;
  std::function<std::unique_ptr<sim::Motif>()> motif;
  double motif_compute_ns = 500.0;
};

struct Scenario {
  std::string topology;  // key registered with the engine's artifact cache
  Kind kind = Kind::kStructure;

  // Simulation knobs: analytic kinds ignore them; CampaignBuilder grids
  // carry them into the SimScenarios that expand_sims() produces.
  routing::Algo algo = routing::Algo::kMinimal;
  Workload workload;
  std::uint32_t vcs = 0;  // 0 = the paper's diameter-based sizing rule

  // kStructure knobs.  restarts <= 0 skips the (expensive) bisection so
  // distance-only sweeps (Table I) stay cheap at paper scale; conversely
  // want_distances = false skips the O(n*m) all-pairs BFS for cut-only
  // sweeps (Fig. 4 lower-right).
  int bisection_restarts = 2;
  bool want_distances = true;
  bool want_girth = false;  // girth is O(n*m); opt-in (Table I needs it)

  // kLayout knobs (the QAP heuristic runs off `seed`).
  int layout_em_rounds = 4;
  int layout_swap_passes = 4;

  // Shared knobs.  A failure fraction > 0 deletes that share of links
  // (seeded) before evaluation, so cached pristine artifacts are reused
  // only as the base graph.
  double failure_fraction = 0.0;
  // Simulation only: mid-run link/router churn (graph/failures.hpp).  Unlike
  // failure_fraction (static, pre-run deletion) the topology stays
  // pristine and the schedule fires inside the event loop.
  ChurnSpec churn;
  std::uint64_t seed = 1;
};

struct Result {
  std::size_t index = 0;  // position within the submitted batch
  std::string topology;
  Kind kind = Kind::kStructure;
  bool ok = false;
  std::string error;  // set when !ok

  // Filled for every kind, from the evaluation graph (i.e. post-failure
  // degrees).
  std::uint32_t vertices = 0;
  std::uint32_t radix = 0;  // degree of vertex 0 (regular families)

  // Structure metrics.
  bool connected = true;
  double diameter = 0.0;
  double mean_hops = 0.0;
  std::uint32_t girth = 0;            // 0 unless want_girth
  double bisection = 0.0;             // cut edges (link units)
  double normalized_bisection = 0.0;  // cut / (n*k/2)

  // Spectral metrics.
  double lambda = 0.0;
  double mu1 = 0.0;
  bool ramanujan = false;
  double fiedler_bisection_lb = 0.0;  // Fiedler/Mohar bound (link units)

  // Layout metrics (kLayout; placement lets callers derive e.g. the
  // Fig. 11 physical-latency sweep without re-running the QAP heuristic).
  layout::Placement placement;
  double mean_wire_m = 0.0;
  double max_wire_m = 0.0;
  std::uint64_t wires_electrical = 0;
  std::uint64_t wires_optical = 0;
  double power_watts = 0.0;
  double mw_per_gbps = 0.0;  // per Gb/s of bisection bandwidth

  double wall_ms = 0.0;  // evaluation wall-clock (excluded from comparisons)
};

// ---------------------------------------------------------------------------
// Simulation-campaign vocabulary.

/// One simulation run: topology x routing x workload x seed.  The workload
/// (the shared Workload description above) is either a synthetic pattern
/// sweep point or an Ember motif.
struct SimScenario {
  std::string topology;  // key registered with the engine's artifact cache
  routing::Algo algo = routing::Algo::kMinimal;
  Workload workload;
  std::uint32_t vcs = 0;  // 0 = the paper's diameter-based sizing rule
  double failure_fraction = 0.0;  // > 0: seeded link deletion before the run
  // Mid-run churn timeline (none when !churn.any()); the schedule itself
  // is derived deterministically from `seed` inside the engine, so the
  // spec is the whole axis value and folds into the decl fingerprint.
  ChurnSpec churn;
  std::uint64_t seed = 1;
  std::string label;  // free-form tag echoed into the result
};

struct SimResult {
  std::size_t index = 0;  // position within the submitted batch
  std::string topology;
  std::string label;
  bool ok = false;
  std::string error;  // set when !ok

  double diameter = 0.0;  // of the routing tables the run used
  double max_latency_ns = 0.0;
  double mean_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double completion_ns = 0.0;
  std::uint64_t messages = 0;

  // Churn metrics (bench_churn availability curves).  delivered is the
  // fraction of scheduled messages fully delivered (1.0 when no churn);
  // post_churn_p99_ns is the p99 over messages delivered at or after the
  // first failure (0 when no failure fired).
  double delivered = 1.0;
  std::uint64_t reroutes = 0;
  std::uint64_t drops = 0;
  double post_churn_p99_ns = 0.0;

  // Work counters for perf records (BENCH_sim.json): simulator events
  // processed and packet-hops forwarded by this scenario's run.
  std::uint64_t events = 0;
  std::uint64_t packets = 0;

  double wall_ms = 0.0;  // evaluation wall-clock (excluded from comparisons)
};

// ---------------------------------------------------------------------------
// What differs between the two kinds, and nothing else.  Engine::evaluate
// and the row codecs (csv_row / jsonl_row, engine/sink.hpp) are
// overloaded per kind; everything else the batch path needs from a kind
// is here.

struct BatchMeta;  // engine/sink.hpp
struct RunTally;   // engine/campaign.hpp
struct DeclHash;   // batch fingerprint accumulator (engine/campaign.cpp)

template <class Scen>
struct ScenarioKind;

template <>
struct ScenarioKind<Scenario> {
  using Row = Result;
  static const char* const kCsvHeader;  // engine/sink.cpp
  /// One journal row line.  nullopt unless re-serializing the parsed row
  /// reproduces `line` byte for byte (engine/journal.cpp).
  [[nodiscard]] static std::optional<Result> parse(const std::string& line);
  /// Replay match rule, beyond index and topology: the same kind.
  [[nodiscard]] static bool matches(const Result& r, const Scenario& s) {
    return r.kind == s.kind;
  }
  /// A layout row's placement is never serialized, so a journal line
  /// cannot carry it: layout scenarios can neither replay from a journal
  /// nor stream back from a worker.  Throws std::runtime_error naming
  /// the batch, ending "layout phases cannot <cannot>".
  static void require_journalable(const Scenario& s, const BatchMeta& m,
                                  const char* cannot);
  /// Fold every knob into the batch fingerprint (DeclPins.* pin it).
  static void fold(DeclHash& d, const Scenario& s);
  /// Analytic rows carry no simulator work.
  static void tally(RunTally&, const Result&) {}
};

template <>
struct ScenarioKind<SimScenario> {
  using Row = SimResult;
  static const char* const kCsvHeader;
  [[nodiscard]] static std::optional<SimResult> parse(const std::string& line);
  /// Replay match rule, beyond index and topology: the same label.
  [[nodiscard]] static bool matches(const SimResult& r, const SimScenario& s) {
    return r.label == s.label;
  }
  static void require_journalable(const SimScenario&, const BatchMeta&,
                                  const char*) {}
  static void fold(DeclHash& d, const SimScenario& s);
  /// Adds an ok row's events, packets and messages.
  static void tally(RunTally& t, const SimResult& r);
};

/// The row type a scenario type evaluates to.
template <class Scen>
using RowOf = typename ScenarioKind<Scen>::Row;

}  // namespace sfly::engine
