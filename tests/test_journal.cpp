// Campaign-journal pins: the JSONL stream written by JsonlSink parses
// back (CampaignJournal) into rows that reproduce every serialized
// Result/SimResult field bitwise; kill-and-resume at any line boundary
// appends exactly the missing bytes; shard journals merge back to the
// unsharded stream; the --max-seconds graceful stop leaves a journal a
// resume loop drives to completion with identical bytes; and the batch
// header lines of four bench declarations stay byte-stable.

#include "engine/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"
#include "engine/campaign.hpp"
#include "engine/sink.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/paley.hpp"
#include "topo/slimfly.hpp"

namespace sfly::engine {
namespace {

std::vector<TopologySpec> two_topologies() {
  return {
      {"Paley(13)", [] { return topo::paley_graph({13}); }, 4},
      {"DF(12)",
       [] { return topo::dragonfly_graph(topo::DragonFlyParams::canonical(12)); },
       2}};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "journal_" + name + ".jsonl";
}

// ---------------------------------------------------------------------
// Round trip: every field JsonlSink serializes comes back bitwise.

TEST(JournalRoundTrip, SimResultFieldsSurviveParse) {
  EngineConfig cfg;
  cfg.threads = 2;
  Engine eng(cfg);
  for (const auto& spec : two_topologies())
    eng.register_topology(spec.name, spec.build, spec.concentration);

  CampaignBuilder grid;
  grid.topologies(two_topologies())
      .algos({routing::Algo::kMinimal, routing::Algo::kUgalL})
      .each([](Scenario& s) {
        s.workload.pattern = sim::Pattern::kShuffle;
        s.workload.offered_load = 0.4;
        s.workload.nranks = 32;
        s.workload.messages_per_rank = 4;
      });
  auto batch = grid.expand_sims();
  for (auto& s : batch) s.label = "lab,\"el\"";  // exercise escaping
  // Fold churn into one scenario so the dynamic-failure columns
  // (delivered/reroutes/drops/post_churn_p99_ns) round-trip with
  // non-default values, not just their zeros.
  batch[0].churn.link_kills = 2;
  batch[0].churn.start_ns = 100.0;
  batch[0].churn.window_ns = 500.0;
  batch.push_back({"NoSuchTopology"});  // an ok=false row with an error field
  auto results = eng.run_sims(batch);
  ASSERT_FALSE(results.back().ok);
  EXPECT_GT(results[0].post_churn_p99_ns, 0.0);  // churn actually fired

  for (const auto& r : results) {
    const std::string line = jsonl_row(r);
    ASSERT_EQ(line.back(), '\n');
    auto parsed = CampaignJournal::parse_sim_result(
        line.substr(0, line.size() - 1));
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->index, r.index);
    EXPECT_EQ(parsed->topology, r.topology);
    EXPECT_EQ(parsed->label, r.label);
    EXPECT_EQ(parsed->ok, r.ok);
    EXPECT_EQ(parsed->error, r.error);
    EXPECT_EQ(parsed->diameter, r.diameter);
    EXPECT_EQ(parsed->max_latency_ns, r.max_latency_ns);    // bitwise (%.17g)
    EXPECT_EQ(parsed->mean_latency_ns, r.mean_latency_ns);
    EXPECT_EQ(parsed->p99_latency_ns, r.p99_latency_ns);
    EXPECT_EQ(parsed->completion_ns, r.completion_ns);
    EXPECT_EQ(parsed->messages, r.messages);
    EXPECT_EQ(parsed->delivered, r.delivered);
    EXPECT_EQ(parsed->reroutes, r.reroutes);
    EXPECT_EQ(parsed->drops, r.drops);
    EXPECT_EQ(parsed->post_churn_p99_ns, r.post_churn_p99_ns);
    EXPECT_EQ(parsed->events, r.events);
    EXPECT_EQ(parsed->packets, r.packets);
    // And re-serialization is the identity — the property resume rests on.
    EXPECT_EQ(jsonl_row(*parsed), line);
    // A sim row must not parse as an analytic row.
    EXPECT_FALSE(CampaignJournal::parse_result(line.substr(0, line.size() - 1))
                     .has_value());
  }
}

TEST(JournalRoundTrip, ResultFieldsSurviveParseAcrossKinds) {
  EngineConfig cfg;
  cfg.threads = 2;
  Engine eng(cfg);
  for (const auto& spec : two_topologies())
    eng.register_topology(spec.name, spec.build, spec.concentration);

  std::vector<Scenario> batch;
  {
    Scenario s;
    s.topology = "Paley(13)";
    s.kind = Kind::kStructure;
    s.want_girth = true;  // exercise the girth field
    s.bisection_restarts = 1;
    batch.push_back(s);
    s.kind = Kind::kSpectral;  // lambda / mu1 / ramanujan / fiedler
    batch.push_back(s);
    s.kind = Kind::kLayout;  // wires / power
    s.layout_em_rounds = 1;
    s.layout_swap_passes = 1;
    batch.push_back(s);
    s.topology = "DF(12)";
    s.kind = Kind::kStructure;
    s.failure_fraction = 0.3;  // post-failure metrics
    batch.push_back(s);
    s.topology = "missing";  // error row
    batch.push_back(s);
  }
  auto results = eng.run(batch);
  ASSERT_FALSE(results.back().ok);

  for (const auto& r : results) {
    const std::string line = jsonl_row(r);
    auto parsed =
        CampaignJournal::parse_result(line.substr(0, line.size() - 1));
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->index, r.index);
    EXPECT_EQ(parsed->topology, r.topology);
    EXPECT_EQ(parsed->kind, r.kind);
    EXPECT_EQ(parsed->ok, r.ok);
    EXPECT_EQ(parsed->error, r.error);
    EXPECT_EQ(parsed->vertices, r.vertices);
    EXPECT_EQ(parsed->radix, r.radix);
    EXPECT_EQ(parsed->connected, r.connected);
    EXPECT_EQ(parsed->diameter, r.diameter);
    EXPECT_EQ(parsed->mean_hops, r.mean_hops);
    EXPECT_EQ(parsed->girth, r.girth);
    EXPECT_EQ(parsed->bisection, r.bisection);
    EXPECT_EQ(parsed->normalized_bisection, r.normalized_bisection);
    EXPECT_EQ(parsed->lambda, r.lambda);
    EXPECT_EQ(parsed->mu1, r.mu1);
    EXPECT_EQ(parsed->ramanujan, r.ramanujan);
    EXPECT_EQ(parsed->fiedler_bisection_lb, r.fiedler_bisection_lb);
    EXPECT_EQ(parsed->mean_wire_m, r.mean_wire_m);
    EXPECT_EQ(parsed->max_wire_m, r.max_wire_m);
    EXPECT_EQ(parsed->wires_electrical, r.wires_electrical);
    EXPECT_EQ(parsed->wires_optical, r.wires_optical);
    EXPECT_EQ(parsed->power_watts, r.power_watts);
    EXPECT_EQ(parsed->mw_per_gbps, r.mw_per_gbps);
    EXPECT_EQ(jsonl_row(*parsed), line);
    // The simulation columns of an analytic row are constant zeros; the
    // seal refuses a row that claims anything else.
    for (const char* col : {"max_latency_ns", "mean_latency_ns",
                            "p99_latency_ns", "completion_ns", "messages"}) {
      std::string bad = line.substr(0, line.size() - 1);
      const std::string zero = std::string("\"") + col + "\":0,";
      const std::size_t at = bad.find(zero);
      ASSERT_NE(at, std::string::npos) << col;
      bad.replace(at, zero.size(), std::string("\"") + col + "\":7,");
      EXPECT_FALSE(CampaignJournal::parse_result(bad).has_value()) << bad;
    }
  }
}

TEST(JournalRoundTrip, MetaHeaderAndShardRange) {
  BatchMeta m;
  m.campaign = "camp";
  m.batch = "sweep";
  m.scenarios = 96;
  m.rows = 96;
  auto line = jsonl_meta(m);
  auto parsed = CampaignJournal::parse_meta(line.substr(0, line.size() - 1));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->batch, "sweep");
  EXPECT_EQ(parsed->campaign, "camp");
  EXPECT_EQ(parsed->scenarios, 96u);
  EXPECT_EQ(parsed->shard_count, 1u);
  EXPECT_EQ(parsed->rows, 96u);

  m.shard_index = 1;
  m.shard_count = 3;
  m.rows = 32;
  line = jsonl_meta(m);
  parsed = CampaignJournal::parse_meta(line.substr(0, line.size() - 1));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->shard_index, 1u);
  EXPECT_EQ(parsed->shard_count, 3u);
  EXPECT_EQ(parsed->rows, 32u);

  EXPECT_FALSE(CampaignJournal::parse_meta("{\"batch\":\"x\"}").has_value());

  // shard_range partitions [0, n) into contiguous, concatenating slices.
  for (std::size_t n : {0u, 1u, 7u, 96u, 97u}) {
    for (std::size_t k : {1u, 2u, 3u, 5u}) {
      std::size_t covered = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const auto [lo, hi] = shard_range(n, i, k);
        EXPECT_EQ(lo, covered);
        EXPECT_LE(hi - lo, n / k + 1);
        covered = hi;
      }
      EXPECT_EQ(covered, n);
    }
  }
  EXPECT_THROW((void)shard_range(10, 2, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Kill artifacts and corruption.

TEST(JournalLoad, DropsHalfWrittenTailRejectsMidFileCorruption) {
  const auto path = tmp_path("tail");
  BatchMeta bm;
  bm.batch = "b";
  bm.campaign = "c";
  bm.scenarios = 2;
  bm.rows = 2;
  const std::string meta = jsonl_meta(bm);
  SimResult r;
  r.index = 0;
  r.topology = "T";
  r.ok = true;
  const std::string row0 = jsonl_row(r);
  r.index = 1;
  const std::string row1 = jsonl_row(r);

  // A half-written final line (hard kill mid-fwrite) is dropped.
  spit(path, meta + row0 + row1.substr(0, row1.size() / 2));
  auto j = CampaignJournal::load(path);
  ASSERT_EQ(j.segments().size(), 1u);
  EXPECT_EQ(j.rows(), 1u);
  EXPECT_EQ(j.valid_bytes(), meta.size() + row0.size());

  // A complete-but-corrupt final line is dropped the same way.
  spit(path, meta + row0 + "{\"index\":1,\"garbage\"\n");
  j = CampaignJournal::load(path);
  EXPECT_EQ(j.rows(), 1u);
  EXPECT_EQ(j.valid_bytes(), meta.size() + row0.size());

  // Corruption *before* the end is not a kill artifact: refuse.
  spit(path, meta + "{\"index\":0,\"garbage\"\n" + row1);
  EXPECT_THROW((void)CampaignJournal::load(path), std::runtime_error);

  // Rows before any batch header: a pre-journal --json file.
  spit(path, row0 + row1);
  EXPECT_THROW((void)CampaignJournal::load(path), std::runtime_error);

  // A missing file is an empty journal (fresh resume).
  auto fresh = CampaignJournal::load(path + ".does-not-exist");
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(fresh.valid_bytes(), 0u);
}

// ---------------------------------------------------------------------
// Campaign resume / shard / stop, end to end through Campaign::run.

// One deterministic two-phase campaign (analytic structure grid + sim
// grid) declared identically for every run, as a resumed process would.
void run_two_phase(unsigned threads, const std::vector<ResultSink*>& sinks,
                   RunControl& ctl, std::uint64_t seed_base = 1) {
  EngineConfig cfg;
  cfg.threads = threads;
  Engine eng(cfg);
  Campaign camp(eng, "test_journal");
  CampaignBuilder a;
  a.proto().kind = Kind::kStructure;
  a.proto().bisection_restarts = 1;
  a.topologies(two_topologies())
      .failure_fractions({0.0, 0.25})
      .seed_range(seed_base, 3);
  camp.analytic("structure", std::move(a));
  CampaignBuilder b;
  b.topologies(two_topologies())
      .algos({routing::Algo::kMinimal, routing::Algo::kUgalL})
      .each([](Scenario& s) {
        s.workload.pattern = sim::Pattern::kShuffle;
        s.workload.offered_load = 0.4;
        s.workload.nranks = 32;
        s.workload.messages_per_rank = 4;
      });
  camp.sims("sims", std::move(b));
  camp.run(sinks, ctl);
}

std::string journal_of_uninterrupted(unsigned threads) {
  // Unique per calling test: under `ctest -j`, the CampaignResume tests
  // run as concurrent processes and must not race on a shared path.
  const std::string path =
      std::string(::testing::TempDir()) + "journal_uninterrupted_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  JsonlSink sink(f);
  RunControl ctl;
  run_two_phase(threads, {&sink}, ctl);
  std::fclose(f);
  EXPECT_FALSE(ctl.stopped);
  return slurp(path);
}

// Mimics StandardOptions' --resume wiring: load, truncate to the valid
// prefix, append fresh rows only.
RunControl resume_once(const std::string& path, unsigned threads,
                       double max_seconds = 0.0) {
  auto journal = CampaignJournal::load(path);
  std::error_code ec;
  if (std::filesystem::exists(path, ec) &&
      std::filesystem::file_size(path, ec) > journal.valid_bytes())
    std::filesystem::resize_file(path, journal.valid_bytes());
  std::FILE* f = std::fopen(path.c_str(), "a");
  JsonlSink sink(f);
  RunControl ctl;
  ctl.journal = journal.empty() ? nullptr : &journal;
  ctl.max_seconds = max_seconds;
  run_two_phase(threads, {&sink}, ctl);
  std::fclose(f);
  return ctl;
}

TEST(CampaignResume, ByteIdenticalFromEveryKillPoint) {
  const std::string reference = journal_of_uninterrupted(2);
  // Every line boundary is a legal kill point (including 0 = lost file
  // content and full size = resume of a finished run).
  std::vector<std::size_t> cuts{0, reference.size()};
  for (std::size_t pos = reference.find('\n'); pos != std::string::npos;
       pos = reference.find('\n', pos + 1))
    cuts.push_back(pos + 1);
  const auto path = tmp_path("cut");
  for (std::size_t cut : cuts) {
    spit(path, reference.substr(0, cut));
    RunControl ctl = resume_once(path, 2);
    EXPECT_FALSE(ctl.stopped);
    EXPECT_EQ(slurp(path), reference) << "cut at byte " << cut;
  }
  // And from a mid-line kill (half-written row).
  const std::size_t mid = cuts[cuts.size() / 2] + 7;
  spit(path, reference.substr(0, mid));
  resume_once(path, 2);
  EXPECT_EQ(slurp(path), reference);
}

TEST(CampaignResume, ReplayedRowsReachOnlyReplayWantingSinks) {
  const std::string reference = journal_of_uninterrupted(1);
  const auto path = tmp_path("replay");
  // Cut inside the second phase so both replay and live rows occur.
  std::size_t cut = reference.rfind("{\"batch\":");
  cut = reference.find('\n', cut) + 1;
  cut = reference.find('\n', cut) + 1;  // keep one sim row
  spit(path, reference.substr(0, cut));

  auto journal = CampaignJournal::load(path);
  std::vector<Result> results;
  std::vector<SimResult> sim_results;
  CollectSink collect(&results);
  CollectSink sim_collect(&sim_results);
  RunControl ctl;
  ctl.journal = &journal;
  run_two_phase(1, {&collect, &sim_collect}, ctl);
  // wants_replay sinks see the COMPLETE sequence: 12 structure rows
  // (2 topo x 2 failure x 3 seeds) and 4 sim rows.
  EXPECT_EQ(results.size(), 12u);
  EXPECT_EQ(sim_results.size(), 4u);
  EXPECT_EQ(ctl.replayed, 13u);
  EXPECT_EQ(ctl.evaluated, 3u);
  for (std::size_t i = 0; i < sim_results.size(); ++i)
    EXPECT_EQ(sim_results[i].index, i);
}

TEST(CampaignResume, MismatchedJournalIsRejected) {
  const std::string reference = journal_of_uninterrupted(1);
  const auto path = tmp_path("mismatch");
  // Claim a different batch size in the first header.
  std::string tampered = reference;
  const auto at = tampered.find("\"scenarios\":12");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 14, "\"scenarios\":13");
  spit(path, tampered);
  EXPECT_THROW((void)resume_once(path, 1), std::runtime_error);
}

TEST(CampaignResume, ChangedSeedIsRejectedBySameShapeJournal) {
  // Same grid shape, different seeds: the positional checks all pass,
  // but the batch-header declaration fingerprint must not.
  const std::string reference = journal_of_uninterrupted(1);
  const auto path = tmp_path("seed");
  const std::size_t cut = reference.find('\n', reference.size() / 3) + 1;
  spit(path, reference.substr(0, cut));
  auto journal = CampaignJournal::load(path);
  RunControl ctl;
  ctl.journal = &journal;
  EXPECT_THROW(run_two_phase(1, {}, ctl, /*seed_base=*/2),
               std::runtime_error);
}

TEST(CampaignResume, ChangedChurnIsRejectedBySameShapeJournal) {
  // Same grid shape, different churn spec: the spec folds into the
  // batch-declaration fingerprint (docs/CAMPAIGNS.md), so a journal from
  // one failure timeline can never silently seed a resume of another.
  auto run_churned = [](double window_ns, const std::vector<ResultSink*>& sinks,
                        RunControl& ctl) {
    EngineConfig cfg;
    cfg.threads = 1;
    Engine eng(cfg);
    Campaign camp(eng, "churn_test");
    CampaignBuilder g;
    ChurnSpec c;
    c.link_kills = 1;
    c.start_ns = 100.0;
    c.window_ns = window_ns;
    g.churns({c}).topologies(two_topologies()).each([](Scenario& s) {
      s.workload.pattern = sim::Pattern::kShuffle;
      s.workload.offered_load = 0.4;
      s.workload.nranks = 32;
      s.workload.messages_per_rank = 4;
    });
    camp.sims("churn", std::move(g));
    camp.run(sinks, ctl);
  };
  const auto path = tmp_path("churnspec");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    JsonlSink sink(f);
    RunControl ctl;
    run_churned(500.0, {&sink}, ctl);
    std::fclose(f);
  }
  const std::string reference = slurp(path);
  const std::size_t cut = reference.find('\n', reference.find('\n') + 1) + 1;
  spit(path, reference.substr(0, cut));  // batch header + first row
  {
    auto journal = CampaignJournal::load(path);
    RunControl ctl;
    ctl.journal = &journal;
    EXPECT_THROW(run_churned(900.0, {}, ctl), std::runtime_error);
  }
  // The identical churn declaration resumes cleanly from the same prefix.
  auto journal = CampaignJournal::load(path);
  RunControl ctl;
  ctl.journal = &journal;
  run_churned(500.0, {}, ctl);
  EXPECT_EQ(ctl.replayed, 1u);
  EXPECT_EQ(ctl.evaluated, 1u);
}

TEST(CampaignResume, LayoutRowsRefuseToReplay) {
  // Result::placement is never journaled, so replaying a layout row
  // would hand benches a hollow result — refuse instead.
  auto run_layout = [](const std::vector<ResultSink*>& sinks,
                       RunControl& ctl) {
    EngineConfig cfg;
    cfg.threads = 1;
    Engine eng(cfg);
    Campaign camp(eng, "layout_test");
    CampaignBuilder g;
    g.proto().kind = Kind::kLayout;
    g.proto().bisection_restarts = 1;
    g.proto().layout_em_rounds = 1;
    g.proto().layout_swap_passes = 1;
    g.topologies(two_topologies());
    camp.analytic("layouts", std::move(g));
    camp.run(sinks, ctl);
  };
  const auto path = tmp_path("layout");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    JsonlSink sink(f);
    RunControl ctl;
    run_layout({&sink}, ctl);
    std::fclose(f);
  }
  const std::string reference = slurp(path);
  spit(path, reference.substr(0, reference.find('\n',
                                                reference.find('\n') + 1) +
                                     1));  // header + first layout row
  auto journal = CampaignJournal::load(path);
  ASSERT_EQ(journal.rows(), 1u);
  RunControl ctl;
  ctl.journal = &journal;
  EXPECT_THROW(run_layout({}, ctl), std::runtime_error);
}

TEST(CampaignResume, UnconsumedJournalTailIsDetected) {
  // A journal written by a bigger declaration whose early batches
  // coincide: the run completes, but the leftover segments must be
  // visible so the bench can hard-error instead of exiting 0.
  const std::string reference = journal_of_uninterrupted(1);
  const auto path = tmp_path("tailseg");
  spit(path, reference);
  auto journal = CampaignJournal::load(path);
  ASSERT_EQ(journal.segments().size(), 2u);
  RunControl ctl;
  ctl.journal = &journal;
  // Declare only the first phase (identical to run_two_phase's).
  EngineConfig cfg;
  cfg.threads = 1;
  Engine eng(cfg);
  Campaign camp(eng, "test_journal");
  CampaignBuilder a;
  a.proto().kind = Kind::kStructure;
  a.proto().bisection_restarts = 1;
  a.topologies(two_topologies()).failure_fractions({0.0, 0.25}).seed_range(1, 3);
  camp.analytic("structure", std::move(a));
  camp.run({}, ctl);
  EXPECT_FALSE(ctl.stopped);
  EXPECT_EQ(ctl.unconsumed_segments(), 1u);  // the sims segment was never reached
  // A fully consumed journal reports zero.
  RunControl full;
  full.journal = &journal;
  run_two_phase(1, {}, full);
  EXPECT_EQ(full.unconsumed_segments(), 0u);
}

TEST(CampaignStop, MaxSecondsLoopConvergesToIdenticalBytes) {
  const std::string reference = journal_of_uninterrupted(2);
  const auto path = tmp_path("stop");
  spit(path, "");
  // An over-before-start budget still guarantees progress (at least one
  // submission window per invocation), so the loop terminates.
  int runs = 0;
  bool stopped_at_least_once = false;
  for (; runs < 100; ++runs) {
    RunControl ctl = resume_once(path, 2, /*max_seconds=*/1e-9);
    stopped_at_least_once |= ctl.stopped;
    if (!ctl.stopped) break;
  }
  EXPECT_LT(runs, 100);
  EXPECT_TRUE(stopped_at_least_once);  // 16 scenarios < 16-wide window? no:
  // the two-phase campaign has 12 + 4 rows and the window is >= 16, so
  // the first run finishes phase 1, stops before phase 2, and a second
  // run completes it.
  EXPECT_EQ(slurp(path), reference);
}

TEST(CampaignShard, MergeReconstructsUnshardedBytes) {
  const std::string reference = journal_of_uninterrupted(2);
  std::vector<std::string> shard_paths;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto path = tmp_path(("shard" + std::to_string(i)).c_str());
    std::FILE* f = std::fopen(path.c_str(), "w");
    JsonlSink sink(f);
    RunControl ctl;
    ctl.shard_index = i;
    ctl.shard_count = 3;
    run_two_phase(2, {&sink}, ctl);
    std::fclose(f);
    shard_paths.push_back(path);
  }
  const auto merged = tmp_path("merged");
  std::FILE* out = std::fopen(merged.c_str(), "w");
  // Shard order must not matter (the merge orders by declared index).
  CampaignJournal::merge({shard_paths[2], shard_paths[0], shard_paths[1]},
                         out);
  std::fclose(out);
  EXPECT_EQ(slurp(merged), reference);

  // An incomplete shard set is an error, not a silent partial merge.
  std::FILE* devnull = std::fopen("/dev/null", "w");
  EXPECT_THROW(
      CampaignJournal::merge({shard_paths[0], shard_paths[1]}, devnull),
      std::runtime_error);
  std::fclose(devnull);
}

TEST(CampaignShard, ShardedRunCanResume) {
  // Kill-and-resume composes with sharding: shard 1/3's journal resumes
  // to bytes identical to its own uninterrupted run.
  const auto ref_path = tmp_path("shard_ref");
  {
    std::FILE* f = std::fopen(ref_path.c_str(), "w");
    JsonlSink sink(f);
    RunControl ctl;
    ctl.shard_index = 1;
    ctl.shard_count = 3;
    run_two_phase(2, {&sink}, ctl);
    std::fclose(f);
  }
  const std::string reference = slurp(ref_path);
  const auto path = tmp_path("shard_cut");
  const std::size_t cut = reference.find('\n', reference.size() / 2) + 1;
  spit(path, reference.substr(0, cut));
  {
    auto journal = CampaignJournal::load(path);
    std::FILE* f = std::fopen(path.c_str(), "a");
    JsonlSink sink(f);
    RunControl ctl;
    ctl.journal = &journal;
    ctl.shard_index = 1;
    ctl.shard_count = 3;
    run_two_phase(2, {&sink}, ctl);
    std::fclose(f);
    EXPECT_FALSE(ctl.stopped);
  }
  EXPECT_EQ(slurp(path), reference);
}

// ---------------------------------------------------------------------
// AdaptiveSweep resume: wave schedule reconstruction is bitwise.

void run_adaptive(unsigned threads, const std::vector<ResultSink*>& sinks,
                  RunControl& ctl) {
  EngineConfig cfg;
  cfg.threads = threads;
  Engine eng(cfg);
  CampaignBuilder points;
  points.proto().kind = Kind::kStructure;
  points.proto().bisection_restarts = 1;
  points.topologies(two_topologies());
  points.failure_fractions({0.0, 0.3});
  AdaptiveSweep::Config cfg2;
  cfg2.name = "adaptive_test";
  cfg2.max_trials = 100;
  cfg2.cov_target = 0.001;  // tight enough that wave 1 never converges
  AdaptiveSweep sweep(eng, std::move(points), cfg2);
  sweep.run(sinks, ctl);
}

TEST(AdaptiveSweepResume, WaveScheduleReplaysBitwise) {
  const auto ref_path = tmp_path("adaptive_ref");
  {
    std::FILE* f = std::fopen(ref_path.c_str(), "w");
    JsonlSink sink(f);
    RunControl ctl;
    run_adaptive(2, {&sink}, ctl);
    std::fclose(f);
  }
  const std::string reference = slurp(ref_path);
  // More than one wave must be present for the test to mean anything.
  ASSERT_NE(reference.find("\"batch\":\"wave2\""), std::string::npos);

  const auto path = tmp_path("adaptive_cut");
  for (double frac : {0.2, 0.55, 0.9}) {
    const std::size_t cut =
        reference.find('\n', static_cast<std::size_t>(
                                 static_cast<double>(reference.size()) * frac)) +
        1;
    spit(path, reference.substr(0, cut));
    auto journal = CampaignJournal::load(path);
    std::FILE* f = std::fopen(path.c_str(), "a");
    JsonlSink sink(f);
    RunControl ctl;
    ctl.journal = journal.empty() ? nullptr : &journal;
    run_adaptive(2, {&sink}, ctl);
    std::fclose(f);
    EXPECT_EQ(slurp(path), reference) << "cut fraction " << frac;
  }

  // Sharding an adaptive sweep is rejected outright.
  RunControl ctl;
  ctl.shard_count = 2;
  EXPECT_THROW(run_adaptive(1, {}, ctl), std::runtime_error);
}

TEST(AdaptiveSweepResume, RowOfAnotherKindIsRejected) {
  // A structure row relabeled "spectral" still passes the round-trip
  // seal, so only the replay match rule can refuse it.
  const auto ref_path = tmp_path("adaptive_kind_ref");
  {
    std::FILE* f = std::fopen(ref_path.c_str(), "w");
    JsonlSink sink(f);
    RunControl ctl;
    run_adaptive(2, {&sink}, ctl);
    std::fclose(f);
  }
  std::string text = slurp(ref_path);
  const std::string from = "\"kind\":\"structure\"";
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "\"kind\":\"spectral\"");
  const auto path = tmp_path("adaptive_kind");
  spit(path, text);
  auto journal = CampaignJournal::load(path);
  ASSERT_FALSE(journal.empty());
  ASSERT_FALSE(journal.segments()[0].rows.empty());
  EXPECT_EQ(journal.segments()[0].rows[0].result.kind, Kind::kSpectral);

  RunControl ctl;
  ctl.journal = &journal;
  try {
    run_adaptive(1, {}, ctl);
    FAIL() << "a row of another kind was replayed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Batch-header pins: the exact header line, `decl` fingerprint included,
// of four bench declarations; each equals the first line the bench's own
// `--json` journal writes at the flags named in the test.  CI compares
// journals only within one build, so these are what catch a change that
// silently re-keys every existing journal (decl_hash folds e.g. the
// numeric Kind value).

// Records the first batch header and aborts the run right there, before
// any artifact is built or any scenario evaluates.
class HeaderProbe final : public ResultSink {
 public:
  struct Captured {};
  void meta(const BatchMeta& m) override {
    line = jsonl_meta(m);
    throw Captured{};
  }
  std::string line;
};

std::string first_header(Campaign& camp) {
  HeaderProbe probe;
  EXPECT_THROW(camp.run({&probe}), HeaderProbe::Captured);
  return probe.line;
}

TEST(DeclPins, Table1ClassGridStructureAndSpectral) {
  // bench_table1 --classes 2
  Engine eng;
  Campaign camp(eng, "table1");
  camp.analytic("classes", bench::class_grid(2, [](Scenario& st) {
                  st.bisection_restarts = 0;
                  st.want_girth = true;
                }));
  EXPECT_EQ(first_header(camp),
            "{\"batch\":\"classes\",\"campaign\":\"table1\",\"scenarios\":16"
            ",\"decl\":\"f546f38a0f9dc54f\"}\n");
}

TEST(DeclPins, Fig11LayoutBatch) {
  // bench_fig11_latency --pairs 1
  Engine eng;
  Campaign camp(eng, "fig11_latency");
  CampaignBuilder grid;
  grid.proto().kind = Kind::kLayout;
  grid.proto().layout_em_rounds = 3;
  grid.proto().layout_swap_passes = 3;
  grid.proto().bisection_restarts = 0;
  grid.proto().seed = 23;
  grid.topologies({{topo::LpsParams{11, 7}.name()},
                   {topo::SlimFlyParams{9}.name()}});
  camp.analytic("layouts", std::move(grid));
  EXPECT_EQ(first_header(camp),
            "{\"batch\":\"layouts\",\"campaign\":\"fig11_latency\""
            ",\"scenarios\":2,\"decl\":\"7bbb483d84e2a245\"}\n");
}

TEST(DeclPins, Fig6SimBatch) {
  // bench_fig6_ugal --ranks 64 --msgs 4
  Engine eng;
  Campaign camp(eng, "fig6_ugal");
  CampaignBuilder grid;
  grid.patterns({sim::Pattern::kRandom, sim::Pattern::kShuffle,
                 sim::Pattern::kBitReverse, sim::Pattern::kTranspose})
      .loads(bench::load_points())
      .topologies(bench::simulation_topologies(false))
      .each([](Scenario& s) {
        s.algo = routing::Algo::kUgalL;
        s.workload.nranks = 64;
        s.workload.messages_per_rank = 4;
        s.seed = 42;
      });
  camp.sims("sweep", std::move(grid));
  EXPECT_EQ(first_header(camp),
            "{\"batch\":\"sweep\",\"campaign\":\"fig6_ugal\",\"scenarios\":96"
            ",\"decl\":\"b93726f7e196d3e3\"}\n");
}

TEST(DeclPins, Fig5AdaptiveWaveOne) {
  // bench_fig5_failures --trials 10, the ~600-router class
  Engine eng;
  CampaignBuilder points;
  points.proto().kind = Kind::kStructure;
  points.proto().bisection_restarts = 2;
  points.topologies({{"LPS(23,11)"}, {"SlimFly(17)"}, {"BundleFly(37,3)"},
                     {"DragonFly(24)"}})
      .failure_fractions({0.0, 0.1, 0.2, 0.3, 0.4, 0.5});
  AdaptiveSweep::Config cfg;
  cfg.name = "fig5_small";
  cfg.max_trials = 10;
  cfg.seed_base = 9177;
  AdaptiveSweep sweep(eng, std::move(points), cfg);
  HeaderProbe probe;
  EXPECT_THROW(sweep.run({&probe}), HeaderProbe::Captured);
  EXPECT_EQ(probe.line,
            "{\"batch\":\"wave1\",\"campaign\":\"fig5_small\",\"scenarios\":204"
            ",\"decl\":\"f183aaaebdf08303\"}\n");
}

}  // namespace
}  // namespace sfly::engine
