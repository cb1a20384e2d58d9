// Distributed-dispatch pins: `--workers N` must be invisible in the
// output.  A fleet run — including one whose worker is SIGKILL'd or
// SIGSTOPped mid-batch and its slice reassigned — produces stdout and
// journal bytes identical to an uninterrupted single-process run; a
// fleet stopped by --max-seconds leaves a journal that resumes
// single-process to the same bytes; a worker whose binary expands the
// campaign differently from the parent (stale build) is refused, never
// silently mixed in; a worker that cannot even say HELLO exhausts the
// respawn budget instead of hanging the fleet; a layout phase, whose
// rows a journal line cannot carry, is refused before any runner sees
// it.  Plus the row-index check the wire protocol rides on, the
// sfly_merge output-names-an-input refusal, the --phase-json run
// record's work counts, and the campaign example's thread-invariant
// stdout.

#include "engine/dispatch.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/journal.hpp"
#include "topo/paley.hpp"

namespace sfly::engine {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Bench binaries live next to this test binary (single-directory CMake
// build); ctest may run us from anywhere, so resolve via /proc/self/exe.
std::string bin_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string tmp(const char* name) {
  return std::string(::testing::TempDir()) + "dispatch_" + name;
}

// Runs `cmd` via the shell, returns its exit code (-1 = didn't exit).
int run(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

// The small fig6 campaign every byte-identity test replays: 96 sim
// rows over four topologies, ~0.3 s single-process.
std::string fig6(const std::string& jsonl, const std::string& stdout_path,
                 const std::string& extra) {
  return bin_dir() +
         "/bench_fig6_ugal --ranks 64 --msgs 4 --seed 1 " + extra +
         " --json " + jsonl + " > " + stdout_path + " 2> /dev/null";
}

// ---------------------------------------------------------------------
// Wire-protocol units.

TEST(RowIndex, ParsesJournalRowsRejectsEverythingElse) {
  auto idx = dispatch_detail::row_index(
      R"({"index":42,"topology":"DF","ok":true})");
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 42u);
  EXPECT_EQ(*dispatch_detail::row_index(R"({"index":0})"), 0u);
  // Meta headers, error lines, and torn fragments all lack the row
  // prefix — the dispatcher must not mistake them for results.
  EXPECT_FALSE(dispatch_detail::row_index(R"({"campaign":"fig6"})"));
  EXPECT_FALSE(dispatch_detail::row_index(R"({"error":"boom"})"));
  EXPECT_FALSE(dispatch_detail::row_index(R"({"index":)"));
  EXPECT_FALSE(dispatch_detail::row_index(""));
}

// ---------------------------------------------------------------------
// End-to-end byte identity (the ISSUE's acceptance criterion).

TEST(Dispatch, WorkersMatchSingleProcessBytes) {
  const std::string rj = tmp("ref.jsonl"), ro = tmp("ref.out");
  const std::string wj = tmp("w.jsonl"), wo = tmp("w.out");
  ASSERT_EQ(run(fig6(rj, ro, "--threads 1")), 0);
  ASSERT_EQ(run(fig6(wj, wo, "--workers 2")), 0);
  EXPECT_EQ(slurp(rj), slurp(wj));
  EXPECT_EQ(slurp(ro), slurp(wo));
}

TEST(Dispatch, AdaptiveSweepWorkersMatchSingleProcessBytes) {
  // fig5's waves are analytic Scenario batches, and every fleet process
  // must replay the same CoV wave history to expand the same next wave.
  const std::string bench = bin_dir() + "/bench_fig5_failures --trials 10 ";
  const std::string rj = tmp("f5ref.jsonl"), ro = tmp("f5ref.out");
  const std::string wj = tmp("f5w.jsonl"), wo = tmp("f5w.out");
  ASSERT_EQ(run(bench + "--threads 1 --json " + rj + " > " + ro +
                " 2> /dev/null"),
            0);
  ASSERT_EQ(run(bench + "--workers 2 --json " + wj + " > " + wo +
                " 2> /dev/null"),
            0);
  EXPECT_EQ(slurp(rj), slurp(wj));
  EXPECT_EQ(slurp(ro), slurp(wo));
}

TEST(Dispatch, AnalyticPhasesWorkersMatchSingleProcessBytes) {
  // Three plain analytic Campaign phases (no adaptive waves): Scenario
  // batches through the same one runner path the sim benches take.
  const std::string bench = bin_dir() + "/bench_ablation_topology ";
  const std::string rj = tmp("abref.jsonl"), ro = tmp("abref.out");
  const std::string wj = tmp("abw.jsonl"), wo = tmp("abw.out");
  ASSERT_EQ(run(bench + "--threads 1 --json " + rj + " > " + ro +
                " 2> /dev/null"),
            0);
  ASSERT_EQ(run(bench + "--workers 2 --json " + wj + " > " + wo +
                " 2> /dev/null"),
            0);
  ASSERT_FALSE(slurp(rj).empty());
  EXPECT_EQ(slurp(rj), slurp(wj));
  EXPECT_EQ(slurp(ro), slurp(wo));
}

// A runner that must never be reached.
class UnreachableRunner final : public BatchRunner {
 public:
  std::size_t run_batch(const BatchMeta&, const Batch&,
                        const std::vector<ResultSink*>&,
                        const StreamOptions&) override {
    ADD_FAILURE() << "a layout batch reached the runner";
    return 0;
  }
};

TEST(Dispatch, LayoutPhasesAreRefusedUnderARunner) {
  // A worker streams rows back as journal lines, which never carry a
  // layout row's placement: the batch is refused before the runner sees
  // it, by the same check that refuses to replay layout rows.
  Engine eng(EngineConfig{.threads = 1});
  Campaign camp(eng, "layout_runner");
  CampaignBuilder g;
  g.proto().kind = Kind::kLayout;
  g.topologies({{"Paley(13)", [] { return topo::paley_graph({13}); }}});
  camp.analytic("layouts", std::move(g));
  UnreachableRunner runner;
  RunControl ctl;
  ctl.runner = &runner;
  try {
    camp.run({}, ctl);
    FAIL() << "a layout phase ran under a BatchRunner";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("layout phases cannot run under "
                                         "--workers"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ctl.evaluated, 0u);
}

TEST(Dispatch, SigkilledWorkerSliceIsReassignedBytesIdentical) {
  const std::string rj = tmp("kref.jsonl"), ro = tmp("kref.out");
  const std::string kj = tmp("kill.jsonl"), ko = tmp("kill.out");
  ASSERT_EQ(run(fig6(rj, ro, "--threads 1")), 0);
  // The parent SIGKILLs worker 0 after accepting 2 of its rows; the
  // remaining slice must be reassigned to a respawn with no row lost,
  // duplicated, or reordered.
  ASSERT_EQ(run("SFLY_DISPATCH_TEST_KILL=0:2 " + fig6(kj, ko, "--workers 2")),
            0);
  EXPECT_EQ(slurp(rj), slurp(kj));
  EXPECT_EQ(slurp(ro), slurp(ko));
}

TEST(Dispatch, BudgetStopsFleetGracefullyAndResumesSingleProcess) {
  const std::string big = "--ranks 512 --msgs 16 --seed 1";
  const std::string rj = tmp("bref.jsonl"), ro = tmp("bref.out");
  const std::string bj = tmp("bud.jsonl"), bo = tmp("bud.out");
  const std::string bench = bin_dir() + "/bench_fig6_ugal ";
  ASSERT_EQ(run(bench + big + " --threads 1 --json " + rj + " > " + ro +
                " 2>/dev/null"),
            0);
  // ~2 s of work, 0.2 s budget: the fleet must stop mid-campaign with
  // the resumable exit code and a journal that is a clean line-aligned
  // prefix of the reference.  A worker checks the budget only between
  // deliveries and keeps a 16-row window in flight, so it can stop only
  // before its 48-row slice is fully submitted; `--threads 2` gives each
  // worker one thread, which keeps that window (and the stop) independent
  // of the host's core count.
  ASSERT_EQ(run(bench + big +
                " --workers 2 --threads 2 --max-seconds 0.2 --json " + bj +
                " > " + bo + " 2>/dev/null"),
            75);
  const std::string ref = slurp(rj), part = slurp(bj);
  ASSERT_LT(part.size(), ref.size());
  EXPECT_EQ(ref.compare(0, part.size(), part), 0)
      << "budget-stopped journal is not a prefix of the reference";
  EXPECT_FALSE(part.empty());
  EXPECT_EQ(part.back(), '\n');
  // A plain single-process --resume loop drives the fleet's journal to
  // completion with bytes identical to the uninterrupted run.
  int rc = 75;
  for (int i = 0; i < 32 && rc == 75; ++i)
    rc = run(bench + big + " --threads 1 --resume " + bj + " > " + bo +
             " 2>/dev/null");
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(ref, slurp(bj));
  EXPECT_EQ(slurp(ro), slurp(bo));
}

TEST(Dispatch, StaleWorkerDeclarationIsRefused) {
  const std::string j = tmp("skew.jsonl"), o = tmp("skew.out");
  const std::string err = tmp("skew.err");
  // SFLY_WORKER_DECL_SKEW makes each worker report a fingerprint the
  // parent did not send — the stale-binary scenario.  The run must be
  // refused as a usage-class error, not retried into a crash loop or
  // silently filled with rows from a different campaign expansion.
  const int rc = run("SFLY_WORKER_DECL_SKEW=1 " + bin_dir() +
                     "/bench_fig6_ugal --ranks 64 --msgs 4 --seed 1 "
                     "--workers 2 --json " + j + " > " + o + " 2> " + err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(slurp(err).find("declaration mismatch"), std::string::npos)
      << slurp(err);
}

TEST(Dispatch, StoppedLocalWorkerIsFencedAndRespawned) {
  const std::string big = "--ranks 512 --msgs 16 --seed 1";
  const std::string bench = bin_dir() + "/bench_fig6_ugal " + big;
  const std::string rj = tmp("stopref.jsonl"), ro = tmp("stopref.out");
  const std::string sj = tmp("stop.jsonl"), so = tmp("stop.out");
  const std::string err = tmp("stop.err");
  ASSERT_EQ(run(bench + " --threads 1 --json " + rj + " > " + ro +
                " 2>/dev/null"),
            0);
  // A SIGSTOPped worker neither dies nor heartbeats, so only its lease
  // can notice it: after 0.5 s of silence the parent must SIGKILL it,
  // respawn the slot, and finish with no row lost or duplicated.
  const std::string sh = tmp("stop.sh");
  std::ofstream(sh) << "timeout -s KILL 120 " << bench
                    << " --workers 2 --lease-ms 500 --json " << sj << " > "
                    << so << " 2> " << err << " &\n"
                    << "P=$!; W=; i=0\n"
                    << "while [ -z \"$W\" ] && [ $i -lt 200 ]; do\n"
                    << "  sleep 0.02; i=$((i+1))\n"
                    << "  B=$(pgrep -P $P | head -1)\n"
                    << "  [ -n \"$B\" ] && W=$(pgrep -P $B | head -1)\n"
                    << "done\n"
                    << "sleep 0.3; [ -n \"$W\" ] && kill -STOP $W\n"
                    << "wait $P\n";
  ASSERT_EQ(run("sh " + sh), 0) << slurp(err);
  EXPECT_NE(slurp(err).find("lease expired"), std::string::npos)
      << "the stopped worker's lease never expired:\n" << slurp(err);
  EXPECT_EQ(slurp(rj), slurp(sj));
  EXPECT_EQ(slurp(ro), slurp(so));
}

TEST(Dispatch, WorkerDyingBeforeHelloHitsRespawnBudget) {
  if (::access("/bin/false", X_OK) != 0) GTEST_SKIP() << "no /bin/false";
  // Every spawn exits before its HELLO: each death respawns the slot
  // until max_respawns is spent, then the run fails as a crash loop —
  // a local fleet never sits in start() waiting for a join.
  CampaignDispatcher::Config cfg;
  cfg.workers = 2;
  cfg.exe = "/bin/false";
  cfg.max_respawns = 3;
  CampaignDispatcher d(std::move(cfg));
  Engine eng;
  BatchMeta m;
  m.campaign = "loop";
  m.batch = "b";
  m.scenarios = m.rows = 4;
  const std::vector<Scenario> batch(4);
  try {
    (void)d.run_batch(m, BatchRunner::Batch(eng, batch), {}, StreamOptions{});
    FAIL() << "a crash-looping fleet returned instead of throwing";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("died 3 times"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// sfly_merge: -o naming an input shard must refuse, not truncate it.

TEST(Merge, RefusesOutputNamingAnInputShard) {
  const std::string s0 = tmp("s0.jsonl"), s1 = tmp("s1.jsonl");
  const std::string bench = bin_dir() + "/bench_fig6_ugal "
                            "--ranks 64 --msgs 4 --seed 1 --threads 1 ";
  ASSERT_EQ(run(bench + "--shard 0/2 --json " + s0 + " >/dev/null 2>&1"), 0);
  ASSERT_EQ(run(bench + "--shard 1/2 --json " + s1 + " >/dev/null 2>&1"), 0);
  const std::string before = slurp(s0);
  ASSERT_FALSE(before.empty());
  const std::string merge = bin_dir() + "/sfly_merge ";
  // Same path spelled directly, and the same file reached via a
  // symlink: both must be refused before any byte of output is opened.
  EXPECT_EQ(run(merge + "-o " + s0 + " " + s0 + " " + s1 + " 2>/dev/null"), 2);
  EXPECT_EQ(slurp(s0), before) << "refused merge still truncated the shard";
  const std::string link = tmp("s0_link.jsonl");
  std::remove(link.c_str());
  ASSERT_EQ(::symlink(s0.c_str(), link.c_str()), 0);
  EXPECT_EQ(run(merge + "-o " + link + " " + s0 + " " + s1 + " 2>/dev/null"),
            2);
  EXPECT_EQ(slurp(s0), before);
  // And the legitimate merge still works, reproducing the unsharded run.
  const std::string m = tmp("merged.jsonl"), rj = tmp("mref.jsonl");
  ASSERT_EQ(run(bench + "--json " + rj + " >/dev/null 2>&1"), 0);
  ASSERT_EQ(run(merge + "-o " + m + " " + s0 + " " + s1), 0);
  EXPECT_EQ(slurp(m), slurp(rj));
}

// ---------------------------------------------------------------------
// --phase-json: the run record counts the simulator work of the ok sim
// rows this run evaluated, whoever evaluated them, and none of the rows
// it replayed from a journal.

struct Work {
  std::uint64_t events = 0, packets = 0, messages = 0;
  bool operator==(const Work& o) const {
    return events == o.events && packets == o.packets &&
           messages == o.messages;
  }
};

// One numeric field of a --phase-json record.
double record_field(const std::string& record, const std::string& key) {
  const auto at = record.find("\"" + key + "\": ");
  EXPECT_NE(at, std::string::npos) << key << " missing in " << record;
  if (at == std::string::npos) return -1;
  return std::strtod(record.c_str() + at + key.size() + 4, nullptr);
}

Work record_work(const std::string& path) {
  const std::string rec = slurp(path);
  return {static_cast<std::uint64_t>(record_field(rec, "events")),
          static_cast<std::uint64_t>(record_field(rec, "packets_forwarded")),
          static_cast<std::uint64_t>(record_field(rec, "messages"))};
}

// The same sums over a --json journal's ok sim rows.
Work journal_work(const std::string& path) {
  Work w;
  const CampaignJournal journal = CampaignJournal::load(path);
  for (const auto& seg : journal.segments())
    for (const auto& row : seg.rows)
      if (const auto* r = std::get_if<SimResult>(&row.result); r && r->ok) {
        w.events += r->events;
        w.packets += r->packets;
        w.messages += r->messages;
      }
  return w;
}

const char* const kRecordRun =
    "/bench_fig6_ugal --ranks 64 --msgs 2 --threads 2 ";

TEST(PhaseRecord, WorkCountsAreTheEvaluatedOkRows) {
  const std::string bench = bin_dir() + kRecordRun;
  const std::string j = tmp("rec.jsonl"), p = tmp("rec.json");
  ASSERT_EQ(run(bench + "--json " + j + " --phase-json " + p +
                " >/dev/null 2>&1"),
            0);
  const Work w = journal_work(j);
  EXPECT_GT(w.events, 0u);
  EXPECT_TRUE(record_work(p) == w);
  const std::string rec = slurp(p);
  EXPECT_EQ(record_field(rec, "workers"), 0.0);
  // The engine's own pre-build is timed.
  EXPECT_GT(record_field(rec, "artifact_build_s"), 0.0);
  // One footprint per registered topology, each holding the graph,
  // tables and next-hop index the run built; artifact_bytes sums them.
  for (const char* topo : {"SpectralFly", "DragonFly", "SlimFly", "BundleFly"})
    EXPECT_NE(rec.find("{\"name\": \"" + std::string(topo) + "\", "),
              std::string::npos)
        << topo;
  const std::string key = "\"total_bytes\": ";
  double total = 0;
  std::size_t entries = 0;
  for (auto at = rec.find(key); at != std::string::npos;
       at = rec.find(key, at + 1), ++entries)
    total += std::strtod(rec.c_str() + at + key.size(), nullptr);
  EXPECT_EQ(entries, 4u);
  EXPECT_GT(record_field(rec, "next_hops_bytes"), 0.0);
  EXPECT_GT(total, 0.0);
  EXPECT_EQ(record_field(rec, "artifact_bytes"), total);

  // A --workers fleet returns the same rows, and its record says it ran
  // as a fleet (its eval_s includes the fleet's startup).
  const std::string pw = tmp("rec_workers.json");
  ASSERT_EQ(run(bench + "--workers 2 --phase-json " + pw + " >/dev/null 2>&1"),
            0);
  EXPECT_TRUE(record_work(pw) == w);
  EXPECT_EQ(record_field(slurp(pw), "workers"), 2.0);
}

TEST(PhaseRecord, StoppedRunAndItsResumeAddUpToOneRun) {
  const std::string bench = bin_dir() + kRecordRun;
  const std::string ref = tmp("rec_ref.json");
  ASSERT_EQ(run(bench + "--phase-json " + ref + " >/dev/null 2>&1"), 0);
  // A budget this small stops the run after its first submission window.
  const std::string j = tmp("rec_stop.jsonl");
  const std::string p1 = tmp("rec_stop.json"), p2 = tmp("rec_resume.json");
  std::remove(j.c_str());
  ASSERT_EQ(run(bench + "--max-seconds 0.000001 --json " + j +
                " --phase-json " + p1 + " >/dev/null 2>&1"),
            75);
  ASSERT_EQ(run(bench + "--resume " + j + " --phase-json " + p2 +
                " >/dev/null 2>&1"),
            0);
  const Work stopped = record_work(p1), resumed = record_work(p2);
  EXPECT_GT(stopped.events, 0u);
  EXPECT_GT(resumed.events, 0u);
  const Work sum{stopped.events + resumed.events,
                 stopped.packets + resumed.packets,
                 stopped.messages + resumed.messages};
  EXPECT_TRUE(sum == record_work(ref));
  EXPECT_TRUE(sum == journal_work(j));
}

// ---------------------------------------------------------------------
// examples/experiment_sweep: the documented campaign walkthrough streams
// JSON lines, so its stdout is the same at any thread count.

TEST(Example, ExperimentSweepStdoutIsThreadInvariant) {
  const std::string exe = bin_dir() + "/experiment_sweep";
  if (::access(exe.c_str(), X_OK) != 0) GTEST_SKIP() << "examples not built";
  const std::string o1 = tmp("sweep1.out"), o4 = tmp("sweep4.out");
  ASSERT_EQ(run(exe + " 1 > " + o1), 0);
  ASSERT_EQ(run(exe + " 4 > " + o4), 0);
  const std::string out = slurp(o1);
  EXPECT_EQ(out, slurp(o4));
  // Both phases stream behind their batch headers.
  for (const char* batch : {"failures", "routing"})
    EXPECT_NE(out.find("{\"batch\":\"" + std::string(batch) +
                       "\",\"campaign\":\"quickstart\""),
              std::string::npos)
        << batch;
}

}  // namespace
}  // namespace sfly::engine
