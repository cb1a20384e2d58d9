// End-to-end pins of the bench command line's output files.  The three
// cross-commit goldens (tests/golden/*): fig4's bisection stdout, fig5's
// and churn's journals must keep their bytes unless a change re-pins
// them on purpose.  And the result-file paths of util/options.cpp:
// `--csv FILE` writes what an in-process CsvSink writes for the same
// rows; an unwritable `--csv`/`--json` path exits 1 naming it; a
// `--resume` file holding no journal exits 2 untouched; a torn journal
// tail is cut off and the run resumes to the uninterrupted bytes.  And
// bench_scale's default-scale record holds every row key with row sizes
// and walk lengths that agree with the graph; each record and sflyd's
// `stats` answer has every key named in its doc, and a record that
// cannot be written exits 74.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "engine/journal.hpp"
#include "engine/sink.hpp"
#include "service/query.hpp"
#include "util/json.hpp"

namespace sfly::engine {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
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
  return std::string(::testing::TempDir()) + "cli_" + name;
}

std::string golden(const char* name) {
  return slurp(std::string(SFLY_SOURCE_DIR) + "/tests/golden/" + name);
}

// Runs `cmd` via the shell, returns its exit code (-1 = didn't exit).
int run(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

// ---------------------------------------------------------------------
// Cross-commit goldens (CI diffs the same three files).

TEST(Golden, Fig4BisectionClassesTwoStdout) {
  const std::string out = tmp("fig4.out");
  ASSERT_EQ(run(bin_dir() + "/bench_fig4_bisection --classes 2 --threads 4 > " +
                out + " 2> /dev/null"),
            0);
  EXPECT_EQ(slurp(out), golden("bench_fig4_bisection_classes2.out"));
}

TEST(Golden, Fig5FailuresTrialsTenJournal) {
  const std::string j = tmp("fig5.jsonl");
  ASSERT_EQ(run(bin_dir() + "/bench_fig5_failures --trials 10 --threads 4 "
                            "--json " + j + " > /dev/null 2> /dev/null"),
            0);
  EXPECT_EQ(slurp(j), golden("bench_fig5_failures_trials10.jsonl"));
}

TEST(Golden, ChurnRanks128Msgs8Journal) {
  const std::string j = tmp("churn.jsonl");
  ASSERT_EQ(run(bin_dir() + "/bench_churn --ranks 128 --msgs 8 --threads 4 "
                            "--json " + j + " > /dev/null 2> /dev/null"),
            0);
  EXPECT_EQ(slurp(j), golden("bench_churn_ranks128_msgs8.jsonl"));
}

// ---------------------------------------------------------------------
// Result-file paths of the standard bench options.

// `text` with the last column of every line cut off: wall_ms, the one
// column that differs between two evaluations of the same scenario.
std::string without_wall_ms(const std::string& text) {
  std::string out;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    out += line.substr(0, line.rfind(',')) + "\n";
    pos = nl + 1;
  }
  return out;
}

TEST(CliSinks, CsvFileMatchesAnInProcessCsvSinkOfTheSameRows) {
  // One analytic and one simulation bench; each writes --csv and --json
  // from the same run, and the journal's rows fed to a CsvSink here must
  // give the same CSV bytes, wall_ms aside (a journal does not hold it).
  for (const char* bench : {"bench_table1 --classes 2",
                            "bench_fig6_ugal --ranks 64 --msgs 4"}) {
    const std::string csv = tmp("sinks.csv"), jsonl = tmp("sinks.jsonl");
    ASSERT_EQ(run(bin_dir() + "/" + bench + " --threads 2 --csv " + csv +
                  " --json " + jsonl + " > /dev/null 2> /dev/null"),
              0)
        << bench;
    const CampaignJournal journal = CampaignJournal::load(jsonl);
    ASSERT_GT(journal.rows(), 0u) << bench;
    const std::string again = tmp("sinks.again.csv");
    std::FILE* f = std::fopen(again.c_str(), "w");
    ASSERT_NE(f, nullptr);
    CsvSink sink(f);
    for (const auto& seg : journal.segments())
      for (const auto& row : seg.rows)
        std::visit([&](const auto& r) { sink.consume(r); }, row.result);
    sink.end();
    std::fclose(f);
    EXPECT_EQ(without_wall_ms(slurp(csv)), without_wall_ms(slurp(again)))
        << bench;
  }
}

TEST(CliSinks, UnwritableResultPathExitsOneNamingIt) {
  const std::string bad = tmp("no_such_dir") + "/out";
  const std::string err = tmp("unwritable.err");
  for (const char* flag : {"--csv", "--json"}) {
    EXPECT_EQ(run(bin_dir() + "/bench_table1 --classes 2 " + flag + " " +
                  bad + " > /dev/null 2> " + err),
              1)
        << flag;
    EXPECT_NE(slurp(err).find("error: cannot write " + bad), std::string::npos)
        << flag << ": " << slurp(err);
  }
}

TEST(CliSinks, ResumeRefusesAFileHoldingNoJournalAndLeavesItIntact) {
  const std::string path = tmp("not_a_journal.jsonl");
  for (const std::string& bytes :
       {std::string("index,topology\n0,\"LPS(3,5)\"\n"),
        std::string("{\"index\":0,\"topology\":\"torn")}) {
    spit(path, bytes);
    EXPECT_EQ(run(bin_dir() + "/bench_fig6_ugal --ranks 64 --msgs 4 --resume " +
                  path + " > /dev/null 2> /dev/null"),
              2);
    EXPECT_EQ(slurp(path), bytes);
  }
}

TEST(CliSinks, TornJournalTailIsCutAndResumesToTheUninterruptedBytes) {
  const std::string bench = bin_dir() + "/bench_fig6_ugal --ranks 64 --msgs 4 ";
  const std::string ref = tmp("torn.ref.jsonl"), ref_out = tmp("torn.ref.out");
  ASSERT_EQ(run(bench + "--threads 2 --json " + ref + " > " + ref_out +
                " 2> /dev/null"),
            0);
  const std::string full = slurp(ref);
  // Cut mid-line, as a hard kill leaves the file.
  std::size_t cut = full.size() / 2;
  while (full[cut - 1] == '\n' || full[cut] == '\n') ++cut;
  const std::string torn = tmp("torn.jsonl"), torn_out = tmp("torn.out");
  spit(torn, full.substr(0, cut));
  ASSERT_EQ(run(bench + "--threads 2 --resume " + torn + " > " + torn_out +
                " 2> /dev/null"),
            0);
  EXPECT_EQ(slurp(torn), full);
  EXPECT_EQ(slurp(torn_out), slurp(ref_out));
}

// ---------------------------------------------------------------------
// bench_scale's record (BENCH_scale.json's format).

// The objects of a JSON array token, each scanned flat.
std::vector<JsonObject> array_objects(const std::string& array) {
  std::vector<JsonObject> out;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i < array.size(); ++i) {
    const char c = array[i];
    if (c == '"') {
      while (++i < array.size() && array[i] != '"') i += array[i] == '\\';
    } else if (c == '{' && depth++ == 0) {
      start = i;
    } else if (c == '}' && --depth == 0) {
      EXPECT_TRUE(JsonObject::scan(array.substr(start, i + 1 - start),
                                   out.emplace_back()))
          << array.substr(start, i + 1 - start);
    }
  }
  return out;
}

TEST(BenchScale, DefaultRecordHoldsEveryRowKeyAndConsistentSizes) {
  const std::string out = tmp("scale.json");
  std::remove(out.c_str());
  ASSERT_EQ(run(bin_dir() + "/bench_scale --queries 2 --sources 1 --out " +
                out + " > /dev/null 2> /dev/null"),
            0);
  JsonObject rec;
  ASSERT_TRUE(JsonObject::scan(slurp(out), rec)) << slurp(out);
  std::string bench;
  ASSERT_TRUE(rec.get_str("bench", bench));
  EXPECT_EQ(bench, "bench_scale");
  ASSERT_TRUE(rec.has("topologies"));
  const auto topos = array_objects(*rec.raw("topologies"));
  ASSERT_EQ(topos.size(), 2u);
  for (const auto& t : topos) {
    for (const char* key :
         {"name", "routers", "radix", "edges", "graph_build_s", "row_bytes",
          "projected_exact_bytes", "queries", "row_ms_mean", "hop_ns_mean",
          "ecc_max", "walk_hops_mean", "walk_hops_max", "peak_rss_mb"})
      EXPECT_TRUE(t.has(key)) << key;
    std::uint64_t routers = 0, row_bytes = 0, exact = 0, queries = 0;
    std::uint32_t hops_max = 0, ecc_max = 0;
    ASSERT_TRUE(t.get_uint("routers", routers));
    ASSERT_TRUE(t.get_uint("row_bytes", row_bytes));
    ASSERT_TRUE(t.get_uint("projected_exact_bytes", exact));
    ASSERT_TRUE(t.get_uint("queries", queries));
    ASSERT_TRUE(t.get_uint("walk_hops_max", hops_max));
    ASSERT_TRUE(t.get_uint("ecc_max", ecc_max));
    EXPECT_EQ(row_bytes, routers);
    EXPECT_EQ(exact, routers * routers);
    EXPECT_EQ(queries, 2u);
    EXPECT_GE(hops_max, 1u);
    EXPECT_LE(hops_max, ecc_max);
  }
  // The default pair: LPS(23,13) then DF(16,8,69).
  std::uint64_t lps_routers = 0;
  ASSERT_TRUE(topos[0].get_uint("routers", lps_routers));
  EXPECT_EQ(lps_routers, 1092u);
}

// Every key of a record or answer, nested keys too: each string token
// that a ':' follows.
std::set<std::string> keys_of(const std::string& json) {
  std::set<std::string> keys;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '"') continue;
    const std::size_t start = ++i;
    while (i < json.size() && json[i] != '"') i += json[i] == '\\' ? 2 : 1;
    const std::size_t end = i;
    std::size_t j = i + 1;
    while (j < json.size() && json[j] == ' ') ++j;
    if (j < json.size() && json[j] == ':')
      keys.insert(json.substr(start, end - start));
  }
  return keys;
}

// Each run record (fig6's --phase-json, bench_scale's) and the sflyd
// `stats` answer scans as JSON, and its doc names every key it holds.
TEST(RunRecord, EveryKeyIsNamedInItsDoc) {
  const std::string phase = tmp("doc_phase.json"), scale = tmp("doc_scale.json");
  ASSERT_EQ(run(bin_dir() + "/bench_fig6_ugal --ranks 64 --msgs 2 --threads 2 "
                            "--phase-json " + phase + " > /dev/null 2> /dev/null"),
            0);
  ASSERT_EQ(run(bin_dir() + "/bench_scale --queries 1 --sources 1 --out " +
                scale + " > /dev/null 2> /dev/null"),
            0);
  service::QueryEngine queries;
  queries.register_spec("Paley(13)");
  const struct {
    std::string json;
    const char* doc;
  } cases[] = {{slurp(phase), "docs/CAMPAIGNS.md"},
               {slurp(scale), "docs/BENCHES.md"},
               {queries.handle(R"({"id":1,"kind":"stats"})"), "docs/SERVICE.md"}};
  for (const auto& c : cases) {
    JsonObject scanned;
    EXPECT_TRUE(JsonObject::scan(c.json, scanned)) << c.json;
    const std::string doc =
        slurp(std::string(SFLY_SOURCE_DIR) + "/" + c.doc);
    ASSERT_FALSE(doc.empty()) << c.doc;
    const auto keys = keys_of(c.json);
    EXPECT_GT(keys.size(), 10u) << c.json;
    for (const auto& key : keys)
      EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
          << c.doc << " does not name `" << key << "`";
  }
}

// A record that cannot be written is a loud, distinct failure (EX_IOERR),
// never a silent loss.
TEST(RunRecord, WriteFailureExits74) {
  if (run("test -w /dev/full") != 0) GTEST_SKIP() << "/dev/full unavailable";
  EXPECT_EQ(run(bin_dir() + "/bench_fig6_ugal --ranks 64 --msgs 2 "
                            "--phase-json /dev/full > /dev/null 2> /dev/null"),
            74);
  EXPECT_EQ(run(bin_dir() + "/bench_scale --queries 1 --sources 1 "
                            "--out /dev/full > /dev/null 2> /dev/null"),
            74);
}

}  // namespace
}  // namespace sfly::engine
