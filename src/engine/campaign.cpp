#include "engine/campaign.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <ctime>
#include <set>
#include <stdexcept>
#include <utility>

#include "engine/dispatch.hpp"
#include "engine/journal.hpp"
#include "engine/sink.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace sfly::engine {

namespace {

volatile std::sig_atomic_t g_stop_signal = 0;
// CLOCK_MONOTONIC time of the stop request; lock-free, so the handler
// may touch it.
std::atomic<std::int64_t> g_stop_ns{0};
static_assert(std::atomic<std::int64_t>::is_always_lock_free);

// A repeat of the stop signal this soon after the first one is the same
// request delivered twice: GNU timeout forwards one SIGTERM both to its
// child and to its process group.
constexpr std::int64_t kRepeatWindowNs = 250'000'000;

std::int64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);  // async-signal-safe
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

extern "C" void stop_signal_handler(int sig) {
  const std::int64_t now = monotonic_ns();
  if (g_stop_signal == 0) {
    g_stop_ns = now;
    g_stop_signal = sig;
    return;
  }
  if (sig == g_stop_signal && now - g_stop_ns < kRepeatWindowNs) return;
  ::_exit(128 + sig);  // a second request: force out
}

}  // namespace

void install_stop_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = stop_signal_handler;
  // Each handler runs with both stop signals blocked, so they never
  // interleave, and two pending at once are handled one after the other
  // in signal-number order.
  sigemptyset(&sa.sa_mask);
  sigaddset(&sa.sa_mask, SIGTERM);
  sigaddset(&sa.sa_mask, SIGINT);
  // SA_RESTART: interrupted stdio/socket calls resume, so the stop is
  // observed only at the over_budget() row boundaries — never as a
  // short write that would tear a journal line.
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

int stop_signal_seen() { return static_cast<int>(g_stop_signal); }

namespace {

// The journal segment covering the upcoming batch, or nullptr when the
// journal is exhausted (the batch runs fresh).  Advances ctl's cursor.
// Any disagreement between journal and declaration is a hard error: a
// wrong resume must never silently produce a franken-journal.
const CampaignJournal::Segment* consume_segment(RunControl& ctl,
                                                const BatchMeta& expect) {
  if (!ctl.journal || ctl.journal_cursor >= ctl.journal->segments().size())
    return nullptr;
  const auto& seg = ctl.journal->segments()[ctl.journal_cursor];
  if (seg.meta.batch != expect.batch ||
      seg.meta.campaign != expect.campaign ||
      seg.meta.scenarios != expect.scenarios ||
      seg.meta.shard_index != expect.shard_index ||
      seg.meta.shard_count != expect.shard_count ||
      seg.meta.rows != expect.rows || seg.meta.decl != expect.decl)
    throw std::runtime_error(
        "resume: journal batch '" + seg.meta.campaign + "/" + seg.meta.batch +
        "' does not match the declared batch '" + expect.campaign + "/" +
        expect.batch + "' — was the journal written by this bench at these "
        "flags (scale, seed, shard)?");
  if (seg.rows.size() > expect.rows)
    throw std::runtime_error("resume: journal batch '" + expect.batch +
                             "' holds more rows than the batch declares");
  if (seg.rows.size() < expect.rows &&
      ctl.journal_cursor + 1 < ctl.journal->segments().size())
    throw std::runtime_error("resume: incomplete batch '" + expect.batch +
                             "' is not the journal tail — corrupt journal");
  ++ctl.journal_cursor;
  return &seg;
}

// The replay match rule: a journaled row must be of the batch's row
// type and carry its batch index and the topology expanded there, plus
// ScenarioKind::matches (the same kind, or the same label).
template <class Scen>
const RowOf<Scen>& replayed(const CampaignJournal::Row& row, const Scen& sc,
                            std::size_t index, const BatchMeta& m) {
  const auto* r = std::get_if<RowOf<Scen>>(&row.result);
  if (!r || r->index != index || r->topology != sc.topology ||
      !ScenarioKind<Scen>::matches(*r, sc))
    throw std::runtime_error(
        "resume: journal row " + std::to_string(index) + " of batch '" +
        m.batch + "' does not match the expanded scenario at that position");
  // Benches consume layout placements from the collected results, so a
  // hollow replayed row is refused.
  ScenarioKind<Scen>::require_journalable(
      sc, m, "be resumed; rerun this campaign from scratch");
  return *r;
}

// The one replay-then-stream sequence behind every campaign batch (a
// Campaign phase or an AdaptiveSweep wave).  This run owns rows
// batch[lo, lo + m.rows): consume the journal segment, announce a fresh
// batch, validate and replay the journaled rows, then stream the rest
// through ctl.runner or the engine.  Every row, replayed or evaluated,
// appends to `out`; the time and the work of the evaluated rows add to
// `tally`.  Returns false when the budget stopped the batch part-way,
// leaving a clean journal prefix on disk.
template <class Scen>
bool replay_and_stream(Engine& eng, RunControl& ctl, const BatchMeta& m,
                       const std::vector<Scen>& batch, std::size_t lo,
                       std::vector<RowOf<Scen>>& out,
                       const std::vector<ResultSink*>& sinks,
                       RunTally& tally) {
  const CampaignJournal::Segment* seg = consume_segment(ctl, m);
  const std::size_t have = seg ? seg->rows.size() : 0;
  // A journaled batch already carries its header; only fresh batches
  // announce themselves (the JsonlSink turns this into the journal's
  // batch header line).
  if (!seg)
    for (auto* s : sinks) s->meta(m);

  const auto t0 = std::chrono::steady_clock::now();
  const double build0 = eng.artifact_build_seconds();
  const std::size_t first_fresh = out.size() + have;
  CollectSink collect(&out);
  for (std::size_t k = 0; k < have; ++k) {
    const auto& r = replayed(seg->rows[k], batch[lo + k], lo + k, m);
    collect.consume(r);
    for (auto* s : sinks)
      if (s->wants_replay()) s->consume(r);
  }
  const std::vector<Scen> rest(batch.begin() + (lo + have),
                               batch.begin() + (lo + m.rows));
  // A worker streams its rows back as journal lines: same limit as resume.
  if (ctl.runner)
    for (const auto& sc : rest)
      ScenarioKind<Scen>::require_journalable(
          sc, m, "run under --workers; run this bench single-process");
  StreamOptions so;
  so.index_base = lo + have;
  so.stop_after = [&ctl] { return ctl.over_budget(); };
  std::vector<ResultSink*> all{&collect};
  all.insert(all.end(), sinks.begin(), sinks.end());
  const std::size_t delivered =
      ctl.runner
          ? ctl.runner->run_batch(m, BatchRunner::Batch(eng, rest), all, so)
          : eng.run_stream(rest, all, so);
  ctl.replayed += have;
  ctl.evaluated += delivered;
  const double built = eng.artifact_build_seconds() - build0;
  tally.build_seconds += built;
  tally.eval_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() -
      built;
  for (std::size_t k = first_fresh; k < out.size(); ++k)
    ScenarioKind<Scen>::tally(tally, out[k]);
  return delivered == rest.size();
}

}  // namespace

// FNV-1a fold of every scenario knob into the batch fingerprint carried
// by the journal's batch headers: two declarations that expand to the
// same *shape* but different scenarios (a changed --seed, workload, VC
// rule, ...) must never share a header, or a resume would splice stale
// rows in silently.
struct DeclHash {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    bytes("\0", 1);  // length marker: ("ab","c") != ("a","bc")
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }  // bit pattern
  void workload(const Workload& w) {
    u64(static_cast<std::uint64_t>(w.pattern));
    f64(w.offered_load);
    u64(w.nranks);
    u64(w.messages_per_rank);
    u64(w.message_bytes);
    u64(static_cast<std::uint64_t>(w.placement));
    u64(w.motif ? 1 : 0);  // factories can't hash; the label axis does
    f64(w.motif_compute_ns);
  }
  void churn(const ChurnSpec& c) {
    u64(c.link_kills);
    u64(c.router_kills);
    f64(c.start_ns);
    f64(c.window_ns);
    f64(c.repair_ns);
  }
};

void ScenarioKind<Scenario>::fold(DeclHash& d, const Scenario& s) {
  d.str(s.topology);
  d.u64(static_cast<std::uint64_t>(s.kind));
  d.u64(static_cast<std::uint64_t>(s.algo));
  d.workload(s.workload);
  d.u64(s.vcs);
  d.u64(static_cast<std::uint64_t>(s.bisection_restarts));
  d.u64(s.want_distances ? 1 : 0);
  d.u64(s.want_girth ? 1 : 0);
  d.u64(static_cast<std::uint64_t>(s.layout_em_rounds));
  d.u64(static_cast<std::uint64_t>(s.layout_swap_passes));
  d.f64(s.failure_fraction);
  d.churn(s.churn);
  d.u64(s.seed);
}

void ScenarioKind<SimScenario>::fold(DeclHash& d, const SimScenario& s) {
  d.str(s.topology);
  d.u64(static_cast<std::uint64_t>(s.algo));
  d.workload(s.workload);
  d.u64(s.vcs);
  d.f64(s.failure_fraction);
  d.churn(s.churn);
  d.u64(s.seed);
  d.str(s.label);
}

void ScenarioKind<Scenario>::require_journalable(const Scenario& s,
                                                 const BatchMeta& m,
                                                 const char* cannot) {
  if (s.kind == Kind::kLayout)
    throw std::runtime_error("batch '" + m.batch +
                             "' holds layout scenarios, whose placements "
                             "are not journaled — layout phases cannot " +
                             std::string(cannot));
}

void ScenarioKind<SimScenario>::tally(RunTally& t, const SimResult& r) {
  if (r.ok)
    add_fields(t, RunTally{.events = r.events, .packets = r.packets,
                           .messages = r.messages,
                           .events_by_kind = r.events_by_kind,
                           .noops_by_kind = r.noops_by_kind});
}

namespace {

template <class Scen>
std::uint64_t decl_hash(const std::vector<Scen>& batch) {
  DeclHash d;
  for (const auto& s : batch) ScenarioKind<Scen>::fold(d, s);
  return d.h;
}

}  // namespace

std::size_t RunControl::unconsumed_segments() const {
  if (!journal || journal_cursor >= journal->segments().size()) return 0;
  return journal->segments().size() - journal_cursor;
}

// --- CampaignBuilder -------------------------------------------------------

CampaignBuilder::CampaignBuilder() = default;

template <class V, class Set, class Label>
CampaignBuilder& CampaignBuilder::add_axis(const char* name, std::vector<V> v,
                                           Set set, Label label, bool labeled) {
  // An empty axis (e.g. a topology filter that rejects every candidate at
  // a user-chosen --max-n) is legal: the grid expands to zero scenarios
  // and the bench prints an empty table, as the hand-rolled loops did.
  Axis ax{.name = name, .labeled = labeled};
  for (auto& x : v) {
    ax.labels.emplace_back(label(x));
    ax.setters.emplace_back([set, x = std::move(x)](Scenario& s) { set(s, x); });
  }
  sizes_.push_back(ax.setters.size());
  axes_.push_back(std::move(ax));
  return *this;
}

CampaignBuilder& CampaignBuilder::kinds(std::vector<Kind> v) {
  return add_axis("kind", std::move(v), [](Scenario& s, Kind k) { s.kind = k; },
                  kind_name);
}

CampaignBuilder& CampaignBuilder::topologies(
    std::vector<TopologySpec> v,
    std::function<bool(const TopologySpec&)> keep, std::size_t limit) {
  std::vector<std::string> names;
  for (auto& spec : v) {
    if (keep && !keep(spec)) continue;
    if (limit && topo_specs_.size() >= limit) break;
    names.push_back(spec.name);
    topo_specs_.push_back(std::move(spec));
  }
  return add_axis(
      "topology", std::move(names),
      [](Scenario& s, const std::string& name) { s.topology = name; },
      [](const std::string& name) { return name; });
}

CampaignBuilder& CampaignBuilder::algos(std::vector<routing::Algo> v) {
  return add_axis("algo", std::move(v),
                  [](Scenario& s, routing::Algo a) { s.algo = a; },
                  routing::algo_name);
}

CampaignBuilder& CampaignBuilder::patterns(std::vector<sim::Pattern> v) {
  return add_axis("pattern", std::move(v),
                  [](Scenario& s, sim::Pattern p) { s.workload.pattern = p; },
                  sim::pattern_name);
}

CampaignBuilder& CampaignBuilder::motifs(std::vector<MotifSpec> v) {
  return add_axis(
      "motif", std::move(v),
      [](Scenario& s, const MotifSpec& m) { s.workload.motif = m.factory; },
      [](const MotifSpec& m) { return m.name; }, /*labeled=*/true);
}

CampaignBuilder& CampaignBuilder::loads(std::vector<double> v) {
  return add_axis(
      "load", std::move(v),
      [](Scenario& s, double l) { s.workload.offered_load = l; },
      [](double l) { return Table::num(l, 2); });
}

CampaignBuilder& CampaignBuilder::vc_overrides(std::vector<std::uint32_t> v) {
  return add_axis("vcs", std::move(v),
                  [](Scenario& s, std::uint32_t n) { s.vcs = n; },
                  [](std::uint32_t n) { return std::to_string(n); });
}

CampaignBuilder& CampaignBuilder::placements(
    std::vector<sim::PlacementPolicy> v) {
  return add_axis(
      "placement", std::move(v),
      [](Scenario& s, sim::PlacementPolicy p) { s.workload.placement = p; },
      [](sim::PlacementPolicy p) { return std::to_string(static_cast<int>(p)); });
}

CampaignBuilder& CampaignBuilder::failure_fractions(std::vector<double> v) {
  return add_axis("failure", std::move(v),
                  [](Scenario& s, double f) { s.failure_fraction = f; },
                  [](double f) { return Table::num(f, 2); });
}

CampaignBuilder& CampaignBuilder::churns(std::vector<ChurnSpec> v) {
  // Result rows carry the churn level ("none", "2L", ...).
  return add_axis("churn", std::move(v),
                  [](Scenario& s, const ChurnSpec& c) { s.churn = c; },
                  churn_label, /*labeled=*/true);
}

CampaignBuilder& CampaignBuilder::restarts(std::vector<int> v) {
  return add_axis("restarts", std::move(v),
                  [](Scenario& s, int r) { s.bisection_restarts = r; },
                  [](int r) { return std::to_string(r); });
}

CampaignBuilder& CampaignBuilder::seeds(std::vector<std::uint64_t> v) {
  return add_axis("seed", std::move(v),
                  [](Scenario& s, std::uint64_t seed) { s.seed = seed; },
                  [](std::uint64_t seed) { return std::to_string(seed); });
}

CampaignBuilder& CampaignBuilder::seed_range(std::uint64_t base,
                                             std::size_t count) {
  std::vector<std::uint64_t> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = base + i;
  return seeds(std::move(v));
}

CampaignBuilder& CampaignBuilder::each(std::function<void(Scenario&)> fn) {
  hooks_.push_back(std::move(fn));
  return *this;
}

void CampaignBuilder::register_with(Engine& eng) const {
  for (const auto& spec : topo_specs_)
    if (spec.build)
      eng.register_topology(spec.name, spec.build, spec.concentration);
}

std::size_t CampaignBuilder::grid_size() const {
  std::size_t n = 1;
  for (std::size_t s : sizes_) n *= s;
  return n;
}

std::string CampaignBuilder::shape() const {
  if (axes_.empty()) return "1 (no axes)";
  std::string out;
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    if (i) out += " x ";
    out += axes_[i].name + "(" + std::to_string(sizes_[i]) + ")";
  }
  return out;
}

std::vector<std::string> CampaignBuilder::topology_names() const {
  std::vector<std::string> out;
  out.reserve(topo_specs_.size());
  for (const auto& spec : topo_specs_) out.push_back(spec.name);
  return out;
}

// The one expansion loop both surfaces share: odometer over the axes in
// declaration order (first = outermost, row-major), axis setters, then
// hooks; every point reaches `emit` with its auto-label (the joined
// names of labeled-axis values, e.g. the motif name).
void CampaignBuilder::visit_points(
    const std::function<void(Scenario&&, std::string&&)>& emit) const {
  const std::size_t total = grid_size();
  std::vector<std::size_t> coords(axes_.size(), 0);
  for (std::size_t flat = 0; flat < total; ++flat) {
    std::size_t rem = flat;
    for (std::size_t k = axes_.size(); k-- > 0;) {
      coords[k] = rem % sizes_[k];
      rem /= sizes_[k];
    }
    Scenario s = proto_;
    std::string label;
    for (std::size_t k = 0; k < axes_.size(); ++k) {
      axes_[k].setters[coords[k]](s);
      if (axes_[k].labeled) {
        if (!label.empty()) label += ' ';
        label += axes_[k].labels[coords[k]];
      }
    }
    for (const auto& hook : hooks_) hook(s);
    emit(std::move(s), std::move(label));
  }
}

std::vector<Scenario> CampaignBuilder::expand() const {
  std::vector<Scenario> out;
  out.reserve(grid_size());
  visit_points([&](Scenario&& s, std::string&&) { out.push_back(std::move(s)); });
  return out;
}

std::vector<SimScenario> CampaignBuilder::expand_sims() const {
  std::vector<SimScenario> out;
  out.reserve(grid_size());
  // A sim point is the grid point's simulation fields, renamed; the
  // Workload copies whole.
  visit_points([&](Scenario&& s, std::string&& label) {
    SimScenario sim;
    sim.topology = std::move(s.topology);
    sim.algo = s.algo;
    sim.workload = std::move(s.workload);
    sim.vcs = s.vcs;
    sim.failure_fraction = s.failure_fraction;
    sim.churn = s.churn;
    sim.seed = s.seed;
    sim.label = std::move(label);
    out.push_back(std::move(sim));
  });
  return out;
}

// --- Phase -----------------------------------------------------------------

Phase::Phase(std::string name, CampaignBuilder grid, bool sim)
    : name_(std::move(name)), grid_(std::move(grid)) {
  if (sim) batch_.emplace<Batch<SimScenario>>();
  expand_into_batches();
}

Phase::Phase(std::string name, std::size_t estimate,
             std::function<CampaignBuilder(Engine&)> make)
    : name_(std::move(name)), estimate_(estimate), make_(std::move(make)) {
  batch_.emplace<Batch<SimScenario>>();
}

void Phase::expand_into_batches() {
  if (auto* b = std::get_if<Batch<SimScenario>>(&batch_))
    b->scenarios = grid_.expand_sims();
  else
    std::get<Batch<Scenario>>(batch_).scenarios = grid_.expand();
}

std::size_t Phase::size() const {
  if (deferred()) return estimate_;
  return std::visit([](const auto& b) { return b.scenarios.size(); }, batch_);
}

std::size_t Phase::flat_index(std::initializer_list<std::size_t> coords,
                              std::size_t have) const {
  const auto& sizes = grid_.axis_sizes();
  if (coords.size() != sizes.size())
    throw std::logic_error("Phase::at: expected " +
                           std::to_string(sizes.size()) + " coordinates");
  if (have != grid_.grid_size())
    throw std::logic_error(
        "Phase::at: phase has not run to completion; coordinate access "
        "needs the full product");
  std::size_t flat = 0, k = 0;
  for (std::size_t c : coords) {
    if (c >= sizes[k])
      throw std::logic_error("Phase::at: coordinate out of range");
    flat = flat * sizes[k] + c;
    ++k;
  }
  return flat;
}

// --- Campaign --------------------------------------------------------------

Campaign::Campaign(Engine& eng, std::string name)
    : eng_(eng), name_(std::move(name)) {}

Phase& Campaign::analytic(std::string name, CampaignBuilder grid) {
  grid.register_with(eng_);
  phases_.emplace_back(new Phase(std::move(name), std::move(grid), false));
  return *phases_.back();
}

Phase& Campaign::sims(std::string name, CampaignBuilder grid) {
  grid.register_with(eng_);
  phases_.emplace_back(new Phase(std::move(name), std::move(grid), true));
  return *phases_.back();
}

Phase& Campaign::sims_deferred(std::string name, std::size_t estimate,
                               std::function<CampaignBuilder(Engine&)> make) {
  phases_.emplace_back(new Phase(std::move(name), estimate, std::move(make)));
  return *phases_.back();
}

void Campaign::print_plan(std::FILE* out) const {
  Table t({"Phase", "Scenarios", "Grid", "New artifact builds"});
  std::set<std::string> seen;
  std::size_t total = 0, total_builds = 0;
  for (const auto& ph : phases_) {
    std::size_t fresh = 0;
    for (const auto& name : ph->grid().topology_names())
      if (seen.insert(name).second) ++fresh;
    // A grid without a topology axis still evaluates its proto topology.
    if (ph->grid().topology_names().empty() && !ph->deferred() &&
        seen.insert(ph->grid().proto().topology).second)
      ++fresh;
    total += ph->size();
    total_builds += fresh;
    t.add_row({ph->name(),
               std::to_string(ph->size()) + (ph->deferred() ? " (est.)" : ""),
               ph->deferred() ? "deferred" : ph->grid().shape(),
               std::to_string(fresh)});
  }
  std::fprintf(out, "== campaign plan: %s (dry run, nothing evaluated) ==\n",
               name_.c_str());
  checked_write(out, "campaign plan", t.str());
  std::fprintf(out,
               "total: %zu scenario(s), %zu topology artifact build(s)\n",
               total, total_builds);
}

void Campaign::run(const std::vector<ResultSink*>& sinks) {
  RunControl ctl;
  run(sinks, ctl);
}

void Campaign::run(const std::vector<ResultSink*>& sinks, RunControl& ctl) {
  for (auto& ph : phases_) {
    // Between-phase budget gate.  The evaluated>0 guard guarantees every
    // invocation makes progress, so a resume loop converges even when
    // the budget is smaller than a single batch's cost.
    if (ctl.evaluated > 0 && ctl.over_budget()) {
      ctl.stopped = true;
      return;
    }
    if (ph->deferred()) {
      ph->grid_ = ph->make_(eng_);
      ph->grid_.register_with(eng_);
      ph->expand_into_batches();
      ph->make_ = nullptr;  // materialized: size() now reports the real count
    }
    const std::size_t n = ph->size();
    const auto [lo, hi] = shard_range(n, ctl.shard_index, ctl.shard_count);
    BatchMeta m{.campaign = name_, .batch = ph->name(), .scenarios = n,
                .shard_index = ctl.shard_index,
                .shard_count = ctl.shard_count, .rows = hi - lo};
    const bool done = std::visit(
        [&](auto& b) {
          m.decl = decl_hash(b.scenarios);
          return replay_and_stream(eng_, ctl, m, b.scenarios, lo, b.results,
                                   sinks, ph->tally_);
        },
        ph->batch_);
    if (!done) {  // budget fired mid-batch: clean prefix on disk
      ctl.stopped = true;
      return;
    }
  }
}

Phase& Campaign::phase(const std::string& name) {
  for (auto& ph : phases_)
    if (ph->name() == name) return *ph;
  throw std::out_of_range("no campaign phase named '" + name + "'");
}

// --- AdaptiveSweep ---------------------------------------------------------

CovPrefix cov_prefix(const std::vector<double>& vals, double cov_target) {
  for (std::size_t x = 1; 10 * x <= vals.size(); x *= 10) {
    const std::size_t use = 10 * x;
    double means[10];
    for (std::size_t b = 0; b < 10; ++b) {
      double s = 0;
      for (std::size_t i = 0; i < x; ++i) s += vals[b * x + i];
      means[b] = s / static_cast<double>(x);
    }
    double m = 0;
    for (double v : means) m += v;
    m /= 10.0;
    double var = 0;
    for (double v : means) var += (v - m) * (v - m);
    double cov = m != 0.0 ? std::sqrt(var / 10.0) / std::fabs(m) : 0.0;
    if (cov < cov_target) return {use, true};
  }
  return {vals.size(), false};
}

AdaptiveSweep::AdaptiveSweep(Engine& eng, CampaignBuilder points, Config cfg)
    : eng_(eng), grid_(std::move(points)), cfg_(std::move(cfg)) {
  grid_.register_with(eng_);
  for (auto& s : grid_.expand()) points_.push_back({std::move(s)});
}

void AdaptiveSweep::run(const std::vector<ResultSink*>& sinks) {
  RunControl ctl;
  run(sinks, ctl);
}

void AdaptiveSweep::run(const std::vector<ResultSink*>& sinks,
                        RunControl& ctl) {
  // Waves: every unconverged point contributes its next block of trials
  // (up to the next CoV checkpoint — 10, 100, 1000, ... — capped at its
  // trial budget), the whole wave runs as one streamed batch, and the
  // CoV rule retires points between waves.  Wave composition is a pure
  // function of prior results, and journal rows replay those results
  // bitwise — so a resumed sweep reconstructs the identical schedule.
  if (ctl.shard_count > 1)
    throw std::runtime_error(
        "adaptive sweeps cannot be sharded: the wave schedule depends on "
        "every point's trials, which no single shard holds");
  while (true) {
    if (ctl.evaluated > 0 && ctl.over_budget()) {
      ctl.stopped = true;
      return;
    }
    std::vector<Scenario> batch;
    std::vector<std::pair<std::size_t, std::size_t>> slots;  // (point, trial)
    for (std::size_t pi = 0; pi < points_.size(); ++pi) {
      PointState& p = points_[pi];
      if (p.converged) continue;
      const std::uint64_t cap = trial_cap(p.point);
      std::uint64_t target = 10;
      while (target <= p.scheduled) target *= 10;
      target = std::min(target, cap);
      for (std::size_t t = p.scheduled; t < target; ++t) {
        Scenario sc = p.point;
        sc.seed = split_seed(cfg_.seed_base, t);
        batch.push_back(std::move(sc));
        slots.emplace_back(pi, t);
      }
      p.scheduled = target;
    }
    if (batch.empty()) break;
    ++waves_;

    BatchMeta m{.campaign = cfg_.name, .batch = "wave" + std::to_string(waves_),
                .scenarios = batch.size(), .rows = batch.size(),
                .decl = decl_hash(batch)};
    std::vector<Result> results;
    const bool done = replay_and_stream(eng_, ctl, m, batch, 0, results,
                                        sinks, tally_);
    for (std::size_t i = 0; i < results.size(); ++i) {
      PointState& p = points_[slots[i].first];
      const auto& r = results[i];
      if (r.ok && r.connected) {
        p.kept.push_back(r);
        p.metric_vals.push_back(r.mean_hops);
      }
    }
    if (!done) {  // budget fired mid-wave
      ctl.stopped = true;
      return;
    }
    for (PointState& p : points_) {
      if (p.converged) continue;
      if (cov_prefix(p.metric_vals, cfg_.cov_target).converged)
        p.converged = true;
      if (p.scheduled >= trial_cap(p.point))
        p.converged = true;  // exhausted the budget
    }
  }
}

std::size_t AdaptiveSweep::converged_prefix(std::size_t point) const {
  return cov_prefix(points_[point].metric_vals, cfg_.cov_target).use;
}

void AdaptiveSweep::print_plan(std::FILE* out) const {
  std::uint64_t max_total = 0, first_wave = 0;
  for (const auto& p : points_) {
    const std::uint64_t cap = trial_cap(p.point);
    max_total += cap;
    first_wave += std::min<std::uint64_t>(cap, 10);
  }
  std::fprintf(out,
               "adaptive sweep: %zu point(s) [%s], CoV target %.0f%%,\n"
               "  wave 1 = %llu trial(s); worst case %llu "
               "(checkpoints 10/100/1000/... per point)\n",
               points_.size(), grid_.shape().c_str(), cfg_.cov_target * 100.0,
               static_cast<unsigned long long>(first_wave),
               static_cast<unsigned long long>(max_total));
}

}  // namespace sfly::engine
