// Campaign-layer pins: declarative grid expansion is deterministic and
// reproduces the benches' historical hand-rolled loops exactly; streaming
// sinks see results in strict batch order with identical bytes at any
// thread count; the JSONL sink round-trips; the strict flag parser
// rejects what it must.

#include "engine/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/sink.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/paley.hpp"
#include "util/options.hpp"

namespace sfly::engine {
namespace {

std::vector<TopologySpec> two_topologies() {
  return {
      {"Paley(13)", [] { return topo::paley_graph({13}); }, 4},
      {"DF(12)",
       [] { return topo::dragonfly_graph(topo::DragonFlyParams::canonical(12)); },
       2}};
}

void expect_sim_equal(const SimScenario& a, const SimScenario& b,
                      std::size_t i) {
  EXPECT_EQ(a.topology, b.topology) << "scenario " << i;
  EXPECT_EQ(a.algo, b.algo) << "scenario " << i;
  EXPECT_EQ(a.workload.pattern, b.workload.pattern) << "scenario " << i;
  EXPECT_EQ(a.workload.offered_load, b.workload.offered_load) << "scenario " << i;
  EXPECT_EQ(a.workload.nranks, b.workload.nranks) << "scenario " << i;
  EXPECT_EQ(a.workload.messages_per_rank, b.workload.messages_per_rank)
      << "scenario " << i;
  EXPECT_EQ(a.workload.message_bytes, b.workload.message_bytes)
      << "scenario " << i;
  EXPECT_EQ(a.workload.placement, b.workload.placement) << "scenario " << i;
  EXPECT_EQ(a.vcs, b.vcs) << "scenario " << i;
  EXPECT_EQ(a.failure_fraction, b.failure_fraction) << "scenario " << i;
  EXPECT_EQ(a.seed, b.seed) << "scenario " << i;
}

// The Fig. 6 grid shape: pattern-major, load, topology — the builder must
// reproduce the historical hand-rolled nesting point for point.
TEST(CampaignBuilder, ExpansionMatchesHandRolledFig6Grid) {
  const std::vector<sim::Pattern> patterns = {
      sim::Pattern::kRandom, sim::Pattern::kShuffle, sim::Pattern::kBitReverse,
      sim::Pattern::kTranspose};
  const std::vector<double> loads = {0.1, 0.2, 0.3, 0.5, 0.6, 0.7};
  const std::vector<std::string> topos = {"SpectralFly", "DragonFly",
                                          "SlimFly", "BundleFly"};

  std::vector<SimScenario> ref;
  for (auto pattern : patterns)
    for (double load : loads)
      for (const auto& t : topos) {
        SimScenario s;
        s.topology = t;
        s.algo = routing::Algo::kUgalL;
        s.workload.pattern = pattern;
        s.workload.offered_load = load;
        s.workload.nranks = 1024;
        s.workload.messages_per_rank = 24;
        s.seed = 42;
        ref.push_back(std::move(s));
      }

  std::vector<TopologySpec> specs;
  for (const auto& t : topos) specs.push_back({t, {}});
  CampaignBuilder grid;
  grid.patterns(patterns).loads(loads).topologies(specs)
      .each([](Scenario& s) {
        s.algo = routing::Algo::kUgalL;
        s.workload.nranks = 1024;
        s.workload.messages_per_rank = 24;
        s.seed = 42;
      });
  auto got = grid.expand_sims();
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) expect_sim_equal(got[i], ref[i], i);

  // Expansion is a pure function of the declaration.
  auto again = grid.expand_sims();
  ASSERT_EQ(again.size(), got.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_sim_equal(again[i], got[i], i);
}

// The Fig. 8 grid shape: load-major, pattern, algo (minimal before
// Valiant) over one topology.
TEST(CampaignBuilder, ExpansionMatchesHandRolledFig8Grid) {
  const std::vector<double> loads = {0.1, 0.2, 0.3, 0.5, 0.6, 0.7};
  const std::vector<sim::Pattern> patterns = {
      sim::Pattern::kRandom, sim::Pattern::kShuffle, sim::Pattern::kBitReverse,
      sim::Pattern::kTranspose};

  std::vector<SimScenario> ref;
  for (double load : loads)
    for (auto pattern : patterns)
      for (auto algo : {routing::Algo::kMinimal, routing::Algo::kValiant}) {
        SimScenario s;
        s.topology = "SpectralFly";
        s.algo = algo;
        s.workload.pattern = pattern;
        s.workload.offered_load = load;
        s.workload.nranks = 1024;
        s.workload.messages_per_rank = 24;
        s.seed = 42;
        ref.push_back(std::move(s));
      }

  CampaignBuilder grid;
  grid.topologies({{"SpectralFly", {}}})
      .loads(loads)
      .patterns(patterns)
      .algos({routing::Algo::kMinimal, routing::Algo::kValiant})
      .each([](Scenario& s) {
        s.workload.nranks = 1024;
        s.workload.messages_per_rank = 24;
        s.seed = 42;
      });
  auto got = grid.expand_sims();
  ASSERT_EQ(got.size(), ref.size());
  ASSERT_EQ(got.size(), 48u);
  for (std::size_t i = 0; i < ref.size(); ++i) expect_sim_equal(got[i], ref[i], i);
}

TEST(CampaignBuilder, ChurnAxisExpandsWithLabels) {
  // The churn axis is labeled: result rows carry the level ("none",
  // "2L", "2L+1R~", ...) and every scenario inherits the full spec.
  ChurnSpec two_links;
  two_links.link_kills = 2;
  two_links.start_ns = 100.0;
  two_links.window_ns = 400.0;
  ChurnSpec healing = two_links;
  healing.router_kills = 1;
  healing.repair_ns = 700.0;
  CampaignBuilder grid;
  grid.churns({ChurnSpec{}, two_links, healing}).topologies(two_topologies());
  auto got = grid.expand_sims();
  ASSERT_EQ(got.size(), 6u);  // churn-major over 2 topologies
  EXPECT_EQ(got[0].label, "none");
  EXPECT_FALSE(got[0].churn.any());
  EXPECT_EQ(got[2].label, "2L");
  EXPECT_EQ(got[2].churn.link_kills, 2u);
  EXPECT_EQ(got[2].churn.window_ns, 400.0);
  EXPECT_EQ(got[4].label, "2L+1R~");
  EXPECT_EQ(got[4].churn.router_kills, 1u);
  EXPECT_EQ(got[4].churn.repair_ns, 700.0);
  EXPECT_EQ(got[4].topology, "Paley(13)");
  EXPECT_EQ(got[5].topology, "DF(12)");
}

TEST(CampaignBuilder, EmptyAxisYieldsEmptyGridNotAThrow) {
  // A filter rejecting every candidate (e.g. --max-n smaller than any
  // instance) must degrade to an empty batch, like the hand-rolled loops.
  CampaignBuilder grid;
  grid.topologies({{"T", {}, 8, 100, 4}},
                  [](const TopologySpec& t) { return t.vertices <= 1; })
      .loads({0.1, 0.2});
  EXPECT_EQ(grid.grid_size(), 0u);
  EXPECT_TRUE(grid.expand().empty());
  EXPECT_TRUE(grid.expand_sims().empty());

  EngineConfig cfg;
  cfg.threads = 2;
  Engine eng(cfg);
  Campaign camp(eng, "empty");
  camp.analytic("none", std::move(grid));
  // Zero scenarios: sinks see begin(0)/end(), nothing else — CsvSink
  // writes its header only with the first row, so nothing at all.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  CsvSink csv(f);
  camp.run({&csv});
  EXPECT_TRUE(camp.phase("none").results().empty());
  EXPECT_EQ(std::ftell(f), 0);
  std::fclose(f);
}

TEST(CampaignBuilder, FiltersAndLimitsSelectTopologies) {
  std::vector<TopologySpec> specs;
  for (std::uint32_t n = 10; n <= 100; n += 10)
    specs.push_back({"T" + std::to_string(n), {}, 8, n, n / 10});
  CampaignBuilder grid;
  grid.topologies(
      specs,
      [](const TopologySpec& t) { return t.vertices <= 80 && t.radix >= 3; },
      /*limit=*/3);
  auto names = grid.topology_names();
  ASSERT_EQ(names.size(), 3u);  // 30, 40, 50 pass the filter, capped at 3
  EXPECT_EQ(names[0], "T30");
  EXPECT_EQ(names[2], "T50");
  EXPECT_EQ(grid.expand().size(), 3u);
}

// ---------------------------------------------------------------------
// Streaming sinks.

// Records delivery order and a value fingerprint.
class RecordingSink final : public ResultSink {
 public:
  void begin(std::size_t total) override { totals.push_back(total); }
  void consume(const SimResult& r) override {
    indices.push_back(r.index);
    values.push_back(r.max_latency_ns);
    oks.push_back(r.ok);
  }
  void end() override { ++ended; }

  std::vector<std::size_t> totals;
  std::vector<std::size_t> indices;
  std::vector<double> values;
  std::vector<bool> oks;
  int ended = 0;
};

std::vector<SimScenario> small_sim_batch() {
  CampaignBuilder grid;
  grid.topologies(two_topologies())
      .algos({routing::Algo::kMinimal, routing::Algo::kUgalL})
      .seed_range(1, 2)
      .each([](Scenario& s) {
        s.workload.pattern = sim::Pattern::kShuffle;
        s.workload.offered_load = 0.4;
        s.workload.nranks = 32;
        s.workload.messages_per_rank = 4;
      });
  return grid.expand_sims();
}

std::unique_ptr<Engine> engine_with(unsigned threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  auto eng = std::make_unique<Engine>(cfg);
  for (const auto& spec : two_topologies())
    eng->register_topology(spec.name, spec.build, spec.concentration);
  return eng;
}

TEST(RunStream, SinksSeeBatchOrderIdenticallyAtOneAndFourThreads) {
  auto batch = small_sim_batch();
  RecordingSink serial, parallel;
  engine_with(1)->run_sims_stream(batch, {&serial});
  engine_with(4)->run_sims_stream(batch, {&parallel});

  ASSERT_EQ(serial.totals, std::vector<std::size_t>{batch.size()});
  ASSERT_EQ(parallel.totals, std::vector<std::size_t>{batch.size()});
  EXPECT_EQ(serial.ended, 1);
  ASSERT_EQ(serial.indices.size(), batch.size());
  ASSERT_EQ(parallel.indices.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(serial.indices[i], i);    // strict batch order...
    EXPECT_EQ(parallel.indices[i], i);  // ...at any thread count
    EXPECT_TRUE(serial.oks[i]);
    // Bitwise-identical metrics, serial vs parallel, through the stream.
    EXPECT_EQ(serial.values[i], parallel.values[i]);
  }
}

TEST(RunStream, RunIsStreamWithCollectSink) {
  auto batch = small_sim_batch();
  auto eng = engine_with(2);
  auto direct = eng->run(batch);
  std::vector<SimResult> streamed;
  CollectSink collect(&streamed);
  eng->run_sims_stream(batch, {&collect});
  ASSERT_EQ(direct.size(), streamed.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].index, streamed[i].index);
    EXPECT_EQ(direct[i].max_latency_ns, streamed[i].max_latency_ns);
    EXPECT_EQ(direct[i].messages, streamed[i].messages);
  }
}

// ---------------------------------------------------------------------
// JSONL sink: deterministic bytes across thread counts, and values that
// round-trip back to the collected results.

std::string jsonl_of(unsigned threads, const std::vector<SimScenario>& batch,
                     std::vector<SimResult>* collected = nullptr) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  JsonlSink json(f);
  std::vector<SimResult> results;
  CollectSink collect(&results);
  engine_with(threads)->run_sims_stream(batch, {&json, &collect});
  std::fflush(f);
  std::fseek(f, 0, SEEK_SET);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  if (collected) *collected = std::move(results);
  return text;
}

// Minimal field extractor for one JSONL line.
double json_number(const std::string& line, const std::string& key) {
  auto at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  return std::strtod(line.c_str() + at + key.size() + 3, nullptr);
}

TEST(JsonlSink, ByteIdenticalAcrossThreadCountsAndRoundTrips) {
  auto batch = small_sim_batch();
  std::vector<SimResult> results;
  auto t1 = jsonl_of(1, batch, &results);
  auto t4 = jsonl_of(4, batch);
  EXPECT_EQ(t1, t4);  // wall_ms excluded by design — the stream is diffable

  // One line per result; numbers round-trip exactly (%.17g).
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < t1.size();) {
    auto nl = t1.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    lines.push_back(t1.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), results.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
    EXPECT_EQ(static_cast<std::size_t>(json_number(lines[i], "index")), i);
    EXPECT_EQ(json_number(lines[i], "max_latency_ns"), results[i].max_latency_ns);
    EXPECT_EQ(json_number(lines[i], "mean_latency_ns"),
              results[i].mean_latency_ns);
    EXPECT_EQ(json_number(lines[i], "completion_ns"), results[i].completion_ns);
    EXPECT_EQ(static_cast<std::uint64_t>(json_number(lines[i], "messages")),
              results[i].messages);
    EXPECT_NE(lines[i].find("\"topology\":\"" + results[i].topology + "\""),
              std::string::npos);
    EXPECT_EQ(lines[i].find("wall_ms"), std::string::npos);
  }
}

TEST(CsvSink, SimResultFilePathMatchesStringPath) {
  auto batch = small_sim_batch();
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  CsvSink csv(f);
  std::vector<SimResult> results;
  CollectSink collect(&results);
  engine_with(2)->run_sims_stream(batch, {&csv, &collect});
  std::fseek(f, 0, SEEK_SET);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string expect = ScenarioKind<SimScenario>::kCsvHeader;
  for (const auto& r : results) expect += csv_row(r);
  EXPECT_EQ(text, expect);
  EXPECT_EQ(text.rfind("index,topology,label", 0), 0u);
}

// ---------------------------------------------------------------------
// Campaign phases.

TEST(Campaign, PhasesRunInOrderWithCoordinateAccess) {
  EngineConfig cfg;
  cfg.threads = 2;
  Engine eng(cfg);
  Campaign camp(eng, "test");

  CampaignBuilder structure;
  structure.proto().kind = Kind::kStructure;
  structure.proto().seed = 5;
  structure.topologies(two_topologies()).failure_fractions({0.0, 0.2});
  camp.analytic("structure", std::move(structure));

  CampaignBuilder sims;
  sims.topologies({{"Paley(13)", {}}})
      .algos({routing::Algo::kMinimal, routing::Algo::kValiant})
      .each([](Scenario& s) {
        s.workload.nranks = 32;
        s.workload.messages_per_rank = 2;
        s.seed = 7;
      });
  camp.sims("sims", std::move(sims));

  EXPECT_EQ(camp.phase("structure").size(), 4u);
  EXPECT_EQ(camp.phase("sims").size(), 2u);
  camp.run();

  auto& st = camp.phase("structure");
  ASSERT_EQ(st.results().size(), 4u);
  EXPECT_EQ(st.at({0, 0}).topology, "Paley(13)");
  EXPECT_EQ(st.at({1, 1}).topology, "DF(12)");
  EXPECT_TRUE(st.at({0, 0}).ok) << st.at({0, 0}).error;
  // Pristine vs failure-perturbed rows differ in their scenario, not slot.
  EXPECT_EQ(st.scenarios()[1].failure_fraction, 0.2);

  auto& sm = camp.phase("sims");
  ASSERT_EQ(sm.sim_results().size(), 2u);
  EXPECT_TRUE(sm.sim_at({0, 0}).ok) << sm.sim_at({0, 0}).error;
  EXPECT_THROW((void)camp.phase("nope"), std::out_of_range);
  EXPECT_THROW((void)sm.sim_at({0}), std::logic_error);     // wrong arity
  EXPECT_THROW((void)sm.sim_at({0, 2}), std::logic_error);  // out of range
}

TEST(Campaign, DeferredPhaseExpandsAtRunTime) {
  EngineConfig cfg;
  cfg.threads = 1;
  Engine eng(cfg);
  Campaign camp(eng, "deferred");
  CampaignBuilder first;
  first.topologies(two_topologies()).each([](Scenario& s) {
    s.workload.nranks = 16;
    s.workload.messages_per_rank = 2;
  });
  camp.sims("first", std::move(first));
  camp.sims_deferred("vc", 2, [](Engine& e) {
    // Depends on an artifact the first phase created.
    const std::uint32_t d = e.artifacts().get("Paley(13)")->tables()->diameter();
    CampaignBuilder b;
    b.proto().topology = "Paley(13)";
    b.proto().workload.nranks = 16;
    b.proto().workload.messages_per_rank = 2;
    b.vc_overrides({2 * d + 1, 2});
    return b;
  });
  EXPECT_EQ(camp.phase("vc").size(), 2u);  // the declared estimate
  EXPECT_TRUE(camp.phase("vc").deferred());
  camp.run();
  // Materialized: the phase now reports its real expansion, not the
  // estimate.
  EXPECT_FALSE(camp.phase("vc").deferred());
  EXPECT_EQ(camp.phase("vc").size(), camp.phase("vc").sims().size());
  ASSERT_EQ(camp.phase("vc").sim_results().size(), 2u);
  EXPECT_TRUE(camp.phase("vc").sim_results()[0].ok)
      << camp.phase("vc").sim_results()[0].error;
  EXPECT_EQ(camp.phase("vc").sims()[0].vcs,
            2 * eng.artifacts().get("Paley(13)")->tables()->diameter() + 1);
}

TEST(AdaptiveSweep, DeterministicAcrossThreadCountsAndCapsPristinePoints) {
  auto run_once = [](unsigned threads) {
    EngineConfig cfg;
    cfg.threads = threads;
    Engine eng(cfg);
    CampaignBuilder points;
    points.proto().kind = Kind::kStructure;
    points.proto().bisection_restarts = 1;
    points.topologies(
        {{"DF(6)",
          [] { return topo::dragonfly_graph(topo::DragonFlyParams::canonical(6)); },
          2}});
    points.failure_fractions({0.0, 0.2});
    AdaptiveSweep::Config cfg2;
    cfg2.max_trials = 10;
    AdaptiveSweep sweep(eng, std::move(points), cfg2);
    sweep.run();
    return std::make_pair(sweep.points()[0].scheduled,
                          sweep.points()[1].metric_vals);
  };
  auto [pristine_scheduled_1, vals_1] = run_once(1);
  auto [pristine_scheduled_4, vals_4] = run_once(4);
  EXPECT_EQ(pristine_scheduled_1, 1u);  // deterministic point: one trial
  EXPECT_EQ(pristine_scheduled_4, 1u);
  ASSERT_EQ(vals_1.size(), vals_4.size());
  for (std::size_t i = 0; i < vals_1.size(); ++i)
    EXPECT_EQ(vals_1[i], vals_4[i]);  // bitwise, trial by trial
}

// ---------------------------------------------------------------------
// The paper's batch/CoV stopping rule (footnote 1), as AdaptiveSweep
// applies it between waves.

TEST(CovPrefix, ConstantSeriesConvergesAtTenValues) {
  const CovPrefix p = cov_prefix(std::vector<double>(1000, 3.5), 0.10);
  EXPECT_EQ(p.use, 10u);
  EXPECT_TRUE(p.converged);
}

TEST(CovPrefix, AlternatingFirstWaveConvergesOnlyAtHundred) {
  // Ten batches of one: means 10,0,10,... have CoV 1.  Ten batches of
  // ten: means 5,4,4,...,4 have CoV 0.3 / 4.1 = 0.073.
  std::vector<double> vals(150, 4.0);
  for (std::size_t i = 0; i < 10; ++i) vals[i] = i % 2 ? 0.0 : 10.0;
  const CovPrefix p = cov_prefix(vals, 0.10);
  EXPECT_EQ(p.use, 100u);
  EXPECT_TRUE(p.converged);
  // One value short of the second checkpoint: every value, unconverged.
  vals.resize(99);
  const CovPrefix q = cov_prefix(vals, 0.10);
  EXPECT_EQ(q.use, 99u);
  EXPECT_FALSE(q.converged);
}

TEST(CovPrefix, FewerThanTenValuesReturnsAllUnconverged) {
  for (std::size_t n : {0u, 1u, 9u}) {
    const CovPrefix p = cov_prefix(std::vector<double>(n, 3.5), 0.10);
    EXPECT_EQ(p.use, n);
    EXPECT_FALSE(p.converged);
  }
}

TEST(CovPrefix, TargetIsAStrictBound) {
  // Batch means 1,3,1,3,...: mean 2, standard deviation 1, CoV exactly
  // 0.5 in binary floating point.
  std::vector<double> vals(10);
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = i % 2 ? 3.0 : 1.0;
  EXPECT_FALSE(cov_prefix(vals, 0.5).converged);
  EXPECT_TRUE(cov_prefix(vals, 0.50001).converged);
}

// ---------------------------------------------------------------------
// Strict flag parsing (the bench::Flags rewrite).

TEST(Flags, RejectsTrailingGarbageInNumbers) {
  EXPECT_FALSE(bench::parse_u64("12x").has_value());
  EXPECT_FALSE(bench::parse_u64("").has_value());
  EXPECT_FALSE(bench::parse_u64("-1").has_value());
  EXPECT_FALSE(bench::parse_u64("0x10").has_value());
  EXPECT_FALSE(bench::parse_u64(" 7").has_value());
  ASSERT_TRUE(bench::parse_u64("12").has_value());
  EXPECT_EQ(*bench::parse_u64("12"), 12u);
  EXPECT_EQ(*bench::parse_u64("0"), 0u);
}

TEST(Flags, UnknownFlagsAreErrorsNotIgnored) {
  std::vector<bench::FlagSpec> known = {{"--ranks", true, ""},
                                        {"--full", false, ""}};
  bench::Flags ok({"--ranks", "64", "--full"}, known);
  EXPECT_TRUE(ok.error().empty()) << ok.error();
  EXPECT_EQ(ok.get("--ranks", 0), 64u);
  EXPECT_TRUE(ok.has("--full"));

  bench::Flags unknown({"--rnaks", "64"}, known);
  EXPECT_NE(unknown.error().find("--rnaks"), std::string::npos);

  bench::Flags missing({"--ranks"}, known);
  EXPECT_NE(missing.error().find("expects a value"), std::string::npos);
}

TEST(Flags, RepeatedFlagsAreHardErrors) {
  // Repetition used to silently take the first occurrence, so
  // `--ranks 64 --ranks 8192` ran a 64-rank campaign while the operator
  // believed the second value won.  Now it is a parse error, for value
  // and boolean flags alike.
  std::vector<bench::FlagSpec> known = {{"--ranks", true, ""},
                                        {"--full", false, ""}};
  bench::Flags rep({"--ranks", "64", "--ranks", "8192"}, known);
  EXPECT_NE(rep.error().find("more than once"), std::string::npos)
      << rep.error();
  EXPECT_NE(rep.error().find("--ranks"), std::string::npos);
  bench::Flags repeated_bool({"--full", "--full"}, known);
  EXPECT_NE(repeated_bool.error().find("more than once"), std::string::npos);
  // Same value twice is still an error: the point is that argv is
  // unambiguous, not that the values happened to agree.
  bench::Flags same({"--ranks", "64", "--ranks", "64"}, known);
  EXPECT_FALSE(same.error().empty());
}

TEST(Flags, GetF64AcceptsFractionsRejectsGarbage) {
  // --max-seconds goes through get_f64: fractional budgets are legal;
  // NaN/inf/trailing garbage exit with a usage error (death test).
  std::vector<bench::FlagSpec> known = {{"--max-seconds", true, ""}};
  bench::Flags frac({"--max-seconds", "1.5"}, known);
  EXPECT_TRUE(frac.error().empty()) << frac.error();
  EXPECT_EQ(frac.get_f64("--max-seconds", 0.0), 1.5);
  bench::Flags zero({"--max-seconds", "0"}, known);
  EXPECT_EQ(zero.get_f64("--max-seconds", 7.0), 0.0);  // 0 = disabled
  bench::Flags dflt({}, known);
  EXPECT_EQ(dflt.get_f64("--max-seconds", 3.25), 3.25);
  bench::Flags nan_flags({"--max-seconds", "nan"}, known);
  EXPECT_EXIT((void)nan_flags.get_f64("--max-seconds", 0.0),
              ::testing::ExitedWithCode(2), "finite");
  bench::Flags junk({"--max-seconds", "1.5x"}, known);
  EXPECT_EXIT((void)junk.get_f64("--max-seconds", 0.0),
              ::testing::ExitedWithCode(2), "finite");
}

TEST(Flags, OptionalValueFlagsDefaultToStdout) {
  std::vector<bench::FlagSpec> known = {
      {"--csv", true, "", /*value_optional=*/true},
      {"--full", false, ""}};
  // Omitted value (end of argv, or next token is another flag) = "-".
  bench::Flags trailing({"--csv"}, known);
  EXPECT_TRUE(trailing.error().empty()) << trailing.error();
  EXPECT_EQ(trailing.get_str("--csv"), "-");
  bench::Flags before_flag({"--csv", "--full"}, known);
  EXPECT_TRUE(before_flag.error().empty()) << before_flag.error();
  EXPECT_EQ(before_flag.get_str("--csv"), "-");
  EXPECT_TRUE(before_flag.has("--full"));
  bench::Flags with_path({"--csv", "out.csv"}, known);
  EXPECT_EQ(with_path.get_str("--csv"), "out.csv");
}

}  // namespace
}  // namespace sfly::engine
