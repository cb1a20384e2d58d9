#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/spectralfly_net.hpp"
#include "engine/sink.hpp"
#include "sim/motifs.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/paley.hpp"
#include "util/parallel.hpp"

namespace sfly::engine {
namespace {

// Engine owns a mutex-guarded cache, so it is neither movable nor
// copyable; tests hold it behind unique_ptr.
std::unique_ptr<Engine> make_engine(unsigned threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  auto eng = std::make_unique<Engine>(cfg);
  eng->register_topology(
      "DF(6)", [] { return topo::dragonfly_graph(topo::DragonFlyParams::canonical(6)); },
      /*concentration=*/2);
  return eng;
}

// A small mixed analytic batch: structure and spectral kinds, failures,
// and repeats.
std::vector<Scenario> mixed_batch() {
  std::vector<Scenario> batch;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Scenario st;
    st.topology = "DF(6)";
    st.kind = Kind::kStructure;
    st.failure_fraction = seed == 1 ? 0.0 : 0.15;
    st.seed = seed;
    batch.push_back(st);
  }
  Scenario sp;
  sp.topology = "DF(6)";
  sp.kind = Kind::kSpectral;
  batch.push_back(sp);
  return batch;
}

TEST(TaskPool, ParallelForCoversRangeOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  TaskPool::parallel_for(&pool, hits.size(), 7,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                         });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, ParallelForChunksDependOnlyOnSizeAndGrain) {
  // The chunk bounds, and the order the per-chunk results come back in,
  // are the same with no pool and at every width.
  using Bounds = std::pair<std::size_t, std::size_t>;
  auto bounds = [](TaskPool* pool) {
    return TaskPool::parallel_for(
        pool, 23, 5, [](std::size_t lo, std::size_t hi) { return Bounds{lo, hi}; });
  };
  const std::vector<Bounds> want{{0, 5}, {5, 10}, {10, 15}, {15, 20}, {20, 23}};
  EXPECT_EQ(bounds(nullptr), want);
  for (unsigned w : {1u, 2u, 4u}) {
    TaskPool pool(w);
    EXPECT_EQ(bounds(&pool), want) << "width " << w;
  }
  EXPECT_TRUE(TaskPool::parallel_for(nullptr, 0, 5, [](std::size_t, std::size_t) {
                return 1;
              }).empty());
}

TEST(TaskPool, ParallelForAtWidthOneRunsOnTheCaller) {
  TaskPool pool(1);
  const auto ids = TaskPool::parallel_for(
      &pool, 100, 3, [](std::size_t, std::size_t) { return std::this_thread::get_id(); });
  ASSERT_EQ(ids.size(), 34u);
  for (const auto& id : ids) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(TaskPool, ParallelForFromOwnWorkerRunsInline) {
  // Blocking a worker on chunks queued behind it could deadlock the pool
  // (here every worker would wait); from a worker the chunks run inline.
  TaskPool pool(2);
  std::vector<std::vector<std::thread::id>> seen(2);
  std::vector<std::thread::id> self(2);
  for (std::size_t t = 0; t < 2; ++t)
    pool.submit([&, t] {
      self[t] = std::this_thread::get_id();
      seen[t] = TaskPool::parallel_for(&pool, 64, 4, [](std::size_t, std::size_t) {
        return std::this_thread::get_id();
      });
    });
  pool.wait();
  for (std::size_t t = 0; t < 2; ++t) {
    ASSERT_EQ(seen[t].size(), 16u);
    for (const auto& id : seen[t]) EXPECT_EQ(id, self[t]);
  }
}

TEST(TaskPool, ParallelForRethrowsLowestThrowingChunk) {
  TaskPool pool(4);
  auto body = [](std::size_t lo, std::size_t) {
    if (lo >= 8) throw std::runtime_error("chunk " + std::to_string(lo / 4));
  };
  for (TaskPool* p : {static_cast<TaskPool*>(nullptr), &pool}) {
    try {
      TaskPool::parallel_for(p, 40, 4, body);
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 2");
    }
  }
  // The pool's own error slot stays clean: wait() has nothing to rethrow.
  EXPECT_NO_THROW(pool.wait());
}

TEST(TaskPool, WaitRethrowsTaskException) {
  TaskPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(TaskPool, InlineModeRunsAtSubmit) {
  TaskPool pool(1);
  int x = 0;
  pool.submit([&] { x = 7; });
  EXPECT_EQ(x, 7);
  pool.wait();
}

TEST(TaskPool, InlineModeThrowsAtSubmitNotWait) {
  // Width <= 1 means "serial behaves like plain function calls": the
  // exception must surface at the submit() call site, not be parked in
  // error_ for a wait() the caller may never reach (or a destructor
  // that would silently discard it).
  TaskPool pool(1);
  EXPECT_THROW(pool.submit([] { throw std::runtime_error("boom"); }),
               std::runtime_error);
  pool.wait();  // nothing was captured, so wait() must not rethrow
  int x = 0;
  pool.submit([&] { x = 1; });  // pool still usable after the throw
  EXPECT_EQ(x, 1);
}

TEST(TaskPool, DestructorSurvivesUnreportedThreadedException) {
  // Threaded pools still capture into error_ for wait(); destroying the
  // pool without calling wait() must not crash or std::terminate, and
  // debug builds print a diagnostic naming the discarded exception.
  testing::internal::CaptureStderr();
  {
    std::atomic<bool> ran{false};
    TaskPool pool(2);
    pool.submit([&] {
      ran = true;
      throw std::runtime_error("discarded");
    });
    while (!ran.load()) std::this_thread::yield();
    // The worker sets `ran` before throwing; give it a beat to land the
    // exception in error_ before the destructor runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const std::string err = testing::internal::GetCapturedStderr();
#ifndef NDEBUG
  EXPECT_NE(err.find("unreported task exception"), std::string::npos) << err;
#else
  (void)err;  // release builds stay silent; surviving is the contract
#endif
}

TEST(Engine, SerialAndParallelResultsIdentical) {
  auto batch = mixed_batch();
  auto serial = make_engine(1)->run(batch);
  auto parallel = make_engine(4)->run(batch);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    EXPECT_EQ(a.index, i);
    EXPECT_EQ(b.index, i);
    EXPECT_TRUE(a.ok) << a.error;
    EXPECT_TRUE(b.ok) << b.error;
    // Every metric must be bitwise identical; wall_ms is excluded.
    EXPECT_EQ(a.connected, b.connected);
    EXPECT_EQ(a.diameter, b.diameter);
    EXPECT_EQ(a.mean_hops, b.mean_hops);
    EXPECT_EQ(a.bisection, b.bisection);
    EXPECT_EQ(a.normalized_bisection, b.normalized_bisection);
    EXPECT_EQ(a.lambda, b.lambda);
    EXPECT_EQ(a.mu1, b.mu1);
    EXPECT_EQ(a.ramanujan, b.ramanujan);
  }
}

TEST(Engine, ArtifactCacheReturnsSamePointers) {
  auto eng = make_engine(4);
  auto art = eng->artifacts().get("DF(6)");
  auto tables_before = art->tables();
  auto spectra_before = art->spectra();

  // Repeated scenarios on one topology (run twice, multi-threaded) must
  // not rebuild artifacts: the cached pointers stay identical.
  auto batch = mixed_batch();
  (void)eng->run(batch);
  (void)eng->run(batch);
  EXPECT_EQ(eng->artifacts().get("DF(6)").get(), art.get());
  EXPECT_EQ(art->tables().get(), tables_before.get());
  EXPECT_EQ(art->spectra().get(), spectra_before.get());
  EXPECT_EQ(art->graph().get(), art->graph().get());
}

// ---------------------------------------------------------------------
// Simulation-scenario (SimScenario through Engine::run) pins, mirroring
// the analytic ones above: bitwise serial==parallel determinism and
// artifact sharing.

std::unique_ptr<Engine> make_sim_engine(unsigned threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  auto eng = std::make_unique<Engine>(cfg);
  eng->register_topology("Paley(13)", [] { return topo::paley_graph({13}); },
                         /*concentration=*/4);
  eng->register_topology(
      "DF(12)",
      [] { return topo::dragonfly_graph(topo::DragonFlyParams::canonical(12)); },
      /*concentration=*/2);
  return eng;
}

// UGAL-L + minimal across both topologies and two seeds, plus one Ember
// motif scenario, so every sim dispatch path is covered.
std::vector<SimScenario> sim_batch() {
  std::vector<SimScenario> batch;
  for (const char* topo : {"Paley(13)", "DF(12)"})
    for (auto algo : {routing::Algo::kMinimal, routing::Algo::kUgalL})
      for (std::uint64_t seed : {1ull, 2ull}) {
        SimScenario s;
        s.topology = topo;
        s.algo = algo;
        s.workload.pattern = sim::Pattern::kShuffle;
        s.workload.offered_load = 0.4;
        s.workload.nranks = 32;
        s.workload.messages_per_rank = 4;
        s.seed = seed;
        batch.push_back(std::move(s));
      }
  SimScenario m;
  m.topology = "DF(12)";
  m.workload.motif = [] { return std::make_unique<sim::FftAllToAll>(4, 4, 1024); };
  m.seed = 7;
  batch.push_back(std::move(m));
  return batch;
}

TEST(Engine, SimSerialAndParallelResultsIdentical) {
  auto batch = sim_batch();
  auto serial = make_sim_engine(1)->run(batch);
  auto parallel = make_sim_engine(4)->run(batch);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    EXPECT_EQ(a.index, i);
    EXPECT_EQ(b.index, i);
    EXPECT_TRUE(a.ok) << a.error;
    EXPECT_TRUE(b.ok) << b.error;
    // Every metric must be bitwise identical; wall_ms is excluded.
    EXPECT_EQ(a.diameter, b.diameter);
    EXPECT_EQ(a.max_latency_ns, b.max_latency_ns);
    EXPECT_EQ(a.mean_latency_ns, b.mean_latency_ns);
    EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
    EXPECT_EQ(a.completion_ns, b.completion_ns);
    EXPECT_EQ(a.messages, b.messages);
  }
}

TEST(Engine, SimRunsShareCachedArtifacts) {
  auto eng = make_sim_engine(4);
  auto batch = sim_batch();
  (void)eng->run(batch);
  auto paley = eng->artifacts().get("Paley(13)");
  auto df = eng->artifacts().get("DF(12)");
  auto paley_tables = paley->tables();
  auto df_tables = df->tables();
  // A second multi-threaded campaign over the same topologies must reuse
  // the exact cached artifact objects — no rebuild, same pointers.
  (void)eng->run(batch);
  EXPECT_EQ(eng->artifacts().get("Paley(13)").get(), paley.get());
  EXPECT_EQ(eng->artifacts().get("DF(12)").get(), df.get());
  EXPECT_EQ(paley->tables().get(), paley_tables.get());
  EXPECT_EQ(df->tables().get(), df_tables.get());
}

// run_sims_stream builds every pristine scenario's shared routing
// artifacts before the first scenario starts.  Failure-perturbed
// scenarios derive their own, and a failing lookup reaches its rows.
TEST(Engine, SimStreamBuildsSharedRoutingBeforeAnyScenario) {
  auto eng = make_sim_engine(1);
  eng->register_topology("Perturbed", [] { return topo::paley_graph({13}); }, 4);
  const auto base = sim_batch();
  // At width 1 the first 16 scenarios (the submission window) run before
  // the first delivery, so a lazily built DF(12) would not exist yet.
  std::vector<SimScenario> batch(17, base[0]);  // Paley(13)
  batch.push_back(base[4]);                     // DF(12)
  batch.push_back(base[0]);
  batch.back().topology = "Unregistered";
  batch.push_back(base[0]);
  batch.back().topology = "Perturbed";
  batch.back().failure_fraction = 0.1;

  struct FirstRowProbe : ResultSink {
    using ResultSink::consume;
    Engine* eng = nullptr;
    std::size_t df_next_hops_bytes = 0;
    bool seen = false;
    void consume(const SimResult&) override {
      if (std::exchange(seen, true)) return;
      df_next_hops_bytes =
          eng->artifacts().get("DF(12)")->footprint().next_hops_bytes;
    }
  } probe;
  probe.eng = eng.get();
  std::vector<SimResult> rows;
  CollectSink collect(&rows);
  eng->run_sims_stream(batch, {&probe, &collect});

  EXPECT_GT(probe.df_next_hops_bytes, 0u);
  ASSERT_EQ(rows.size(), batch.size());
  EXPECT_TRUE(rows[17].ok) << rows[17].error;
  EXPECT_FALSE(rows[18].ok);
  EXPECT_NE(rows[18].error.find("Unregistered"), std::string::npos);
  EXPECT_EQ(eng->artifacts().get("Perturbed")->footprint().tables_bytes, 0u);
}

// An artifact whose builder throws is built at most once: the batch
// pre-build and every scenario after it get the stored exception, so each
// row carries the same error and a later request rethrows it too.
TEST(Engine, ThrowingArtifactBuilderRunsOnce) {
  EngineConfig cfg;
  cfg.threads = 2;
  Engine eng(cfg);
  std::atomic<int> calls{0};
  eng.register_topology("Broken", [&calls]() -> Graph {
    ++calls;
    throw std::runtime_error("broken builder");
  });
  std::vector<SimScenario> batch(4, sim_batch()[0]);
  for (auto& s : batch) s.topology = "Broken";
  const auto rows = eng.run(batch);
  EXPECT_EQ(calls.load(), 1);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "broken builder");
  }
  EXPECT_THROW((void)eng.artifacts().get("Broken")->next_hops(),
               std::runtime_error);
  EXPECT_EQ(calls.load(), 1);
}

TEST(Engine, SimScenarioMatchesDirectNetworkRun) {
  // The engine's cached-tables path must reproduce the benches' original
  // Network::from_graph + run_synthetic code path bitwise.
  SimScenario s;
  s.topology = "Paley(13)";
  s.algo = routing::Algo::kUgalL;
  s.workload.pattern = sim::Pattern::kShuffle;
  s.workload.offered_load = 0.5;
  s.workload.nranks = 32;
  s.workload.messages_per_rank = 8;
  s.seed = 42;
  auto engine_result = make_sim_engine(2)->run(std::vector{s});
  ASSERT_TRUE(engine_result[0].ok) << engine_result[0].error;

  core::NetworkOptions opts;
  opts.concentration = 4;
  opts.routing = routing::Algo::kUgalL;
  auto net = core::Network::from_graph("Paley(13)", topo::paley_graph({13}), opts);
  auto sim = net.make_simulator(42);
  sim::SyntheticLoad load;
  load.pattern = sim::Pattern::kShuffle;
  load.nranks = 32;
  load.messages_per_rank = 8;
  load.offered_load = 0.5;
  load.seed = 42;
  auto direct = run_synthetic(*sim, load);
  EXPECT_EQ(engine_result[0].max_latency_ns, direct.max_latency_ns);
  EXPECT_EQ(engine_result[0].mean_latency_ns, direct.mean_latency_ns);
  EXPECT_EQ(engine_result[0].p99_latency_ns, direct.p99_latency_ns);
  EXPECT_EQ(engine_result[0].completion_ns, direct.completion_ns);
  EXPECT_EQ(engine_result[0].messages, direct.messages);
}

TEST(Engine, LayoutScenarioProducesWiringAndPower) {
  EngineConfig cfg;
  cfg.threads = 2;
  Engine eng(cfg);
  eng.register_topology("Paley(13)", [] { return topo::paley_graph({13}); });
  Scenario s;
  s.topology = "Paley(13)";
  s.kind = Kind::kLayout;
  s.layout_em_rounds = 2;
  s.layout_swap_passes = 2;
  s.bisection_restarts = 2;
  s.seed = 11;
  auto serial_eng = Engine({.threads = 1});
  serial_eng.register_topology("Paley(13)", [] { return topo::paley_graph({13}); });
  auto r = eng.run(std::vector{s, s});
  auto r1 = serial_eng.run(std::vector{s});
  ASSERT_TRUE(r[0].ok) << r[0].error;
  EXPECT_EQ(r[0].placement.cabinet_of.size(), 13u);
  EXPECT_GT(r[0].mean_wire_m, 0.0);
  EXPECT_GT(r[0].wires_electrical + r[0].wires_optical, 0u);
  EXPECT_GT(r[0].power_watts, 0.0);
  EXPECT_GT(r[0].mw_per_gbps, 0.0);
  // Deterministic: repeated and serial evaluations agree bitwise.
  EXPECT_EQ(r[0].mean_wire_m, r[1].mean_wire_m);
  EXPECT_EQ(r[0].power_watts, r[1].power_watts);
  EXPECT_EQ(r[0].mean_wire_m, r1[0].mean_wire_m);
  EXPECT_EQ(r[0].placement.cabinet_of, r1[0].placement.cabinet_of);
}

TEST(Engine, UnknownTopologyYieldsErrorResultNotThrow) {
  EngineConfig cfg;
  cfg.threads = 2;
  Engine eng(cfg);
  Scenario s;
  s.topology = "nope";
  auto results = eng.run(std::vector{s});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("nope"), std::string::npos);
}

TEST(Engine, PaperVcSizingAppliedWhenVcsZero) {
  // LPS(3,5) has diameter >= 3; Valiant must get 2d+1 VCs without the
  // caller specifying them (kept in sync with routing::required_vcs).
  EngineConfig cfg;
  cfg.threads = 1;
  Engine eng(cfg);
  eng.register_topology("LPS(3,5)", [] { return topo::lps_graph({3, 5}); }, 4);
  SimScenario s;
  s.topology = "LPS(3,5)";
  s.algo = routing::Algo::kValiant;
  s.workload.nranks = 128;
  s.workload.messages_per_rank = 2;
  s.seed = 5;
  auto r = eng.run(std::vector{s});
  ASSERT_TRUE(r[0].ok) << r[0].error;
  EXPECT_EQ(r[0].diameter, eng.artifacts().get("LPS(3,5)")->tables()->diameter());
  EXPECT_GT(r[0].messages, 0u);
}

TEST(Engine, NetworkCanShareCachedTables) {
  auto eng = make_engine(1);
  auto art = eng->artifacts().get("DF(6)");
  core::NetworkOptions opts;
  opts.concentration = art->concentration();
  const auto tables = art->tables();
  const auto builds = routing::Tables::builds();
  auto net = core::Network::from_shared("DF(6)", art->graph(), tables,
                                        nullptr, opts);
  EXPECT_EQ(&net.tables(), tables.get());  // no all-pairs rebuild
  EXPECT_EQ(&net.topology(), art->graph().get());
  EXPECT_EQ(net.diameter(), tables->diameter());
  EXPECT_EQ(routing::Tables::builds(), builds);
}

TEST(Engine, CsvHasHeaderAndOneLinePerResult) {
  auto eng = make_engine(2);
  const auto batch = mixed_batch();
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  CsvSink csv(f);
  eng->run_stream(batch, {&csv});
  std::fseek(f, 0, SEEK_SET);
  std::string text;
  for (int c; (c = std::fgetc(f)) != EOF;) text += static_cast<char>(c);
  std::fclose(f);
  std::size_t lines = 0;
  for (char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, batch.size() + 1);
  EXPECT_EQ(text.rfind("index,topology,kind", 0), 0u);
}

}  // namespace
}  // namespace sfly::engine
