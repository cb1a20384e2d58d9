// Deterministic mutation fuzz of every consumer of the flat-JSON codec
// (util/json.hpp): every mutant of a valid input — truncated,
// byte-flipped, NUL-ridden, deeply nested, numerically absurd — must
// leave its parser standing.  Pins: JsonObject::scan never crashes (it
// may reject); QueryEngine::handle never throws and always answers an
// object that scans and carries a boolean "ok", with the error counter
// moving only on error frames; the journal parsers accept a mutant only
// if it re-serializes to exactly itself; the handshake parsers accept
// only in-range fields.  Plus byte pins for the one escaper, json_quote.
// Seed-driven (no libFuzzer dependency), so a failure reproduces from
// the printed seed alone.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/journal.hpp"
#include "service/query.hpp"
#include "topo/factory.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

namespace sfly::service {
namespace {

// Valid corpus covering every handler; mutations start from bytes that
// exercise deep request-parsing paths, not just the scanner's first if.
const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kCorpus = {
      R"json({"id":1,"kind":"route","topo":"Paley(13)","src":0,"dst":7,"algo":"ugal-l","seed":1})json",
      R"json({"id":2,"kind":"route","topo":"Paley(13)","src":3,"dst":9,"algo":"valiant","fail":[0,1]})json",
      R"json({"id":3,"kind":"sim","topo":"Paley(13)","pattern":"random","load":0.5,"messages":4})json",
      R"json({"id":4,"kind":"sim","topo":"Paley(13)","motif":"FFT(4,4)","compute_ns":10.5})json",
      R"json({"id":5,"kind":"rank","topos":["Paley(13)","Hypercube(4)"],"job_size":64})json",
      R"json({"id":6,"kind":"stats"})json",
      R"json({"id":7,"kind":"route","topo":"Hypercube(4)","src":15,"dst":0})json",
  };
  return kCorpus;
}

// One deterministic mutation of `s` drawn from `rng`: truncate, insert,
// replace (any byte value including NUL), duplicate a span, splice in a
// hostile token (deep nesting, huge/odd numbers, NaN/Infinity, stray
// quotes/escapes), or stack several of these.
std::string mutate(std::string s, Rng& rng) {
  static const char* kTokens[] = {
      "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
      "{{{{{{{{{{{{{{{{",
      "1e309",
      "-1e-309",
      "184467440737095516150",
      "NaN",
      "Infinity",
      "-Infinity",
      "0x1p3",
      "\"",
      "\\u0000",
      "\\",
      "\x00\x01\xff",
      "}{",
      "]]]]",
      ",,,,",
      ":null:",
  };
  const int rounds = 1 + static_cast<int>(uniform_below(rng, 3));
  for (int r = 0; r < rounds; ++r) {
    switch (uniform_below(rng, 5)) {
      case 0:  // truncate
        if (!s.empty()) s.resize(uniform_below(rng, s.size() + 1));
        break;
      case 1: {  // insert a random byte (NUL included)
        const auto pos = uniform_below(rng, s.size() + 1);
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos),
                 static_cast<char>(uniform_below(rng, 256)));
        break;
      }
      case 2:  // replace a random byte
        if (!s.empty())
          s[uniform_below(rng, s.size())] =
              static_cast<char>(uniform_below(rng, 256));
        break;
      case 3: {  // duplicate a span onto a random position
        if (s.empty()) break;
        const auto from = uniform_below(rng, s.size());
        const auto len = uniform_below(rng, s.size() - from) + 1;
        const auto to = uniform_below(rng, s.size() + 1);
        s.insert(to, s.substr(from, len));
        break;
      }
      default: {  // splice a hostile token
        const char* tok =
            kTokens[uniform_below(rng, std::size(kTokens))];
        s.insert(uniform_below(rng, s.size() + 1), tok);
        break;
      }
    }
  }
  return s;
}

// Mutation can turn a valid request into a valid-but-enormous one
// ("Hypercube(44)", "messages":44444444) — a resource bomb, not a parser
// bug, and out of scope here.  Skip mutants that would *successfully*
// register an unknown topology or inflate the cost knobs; everything
// that fails to scan, fails to parse, or stays within the corpus's small
// topologies is forwarded, so every error path is still exercised.
bool resource_safe(const std::string& req) {
  JsonObject q;
  if (!JsonObject::scan(req, q)) return true;  // will be rejected: safe
  std::vector<std::string> topos;
  std::string s;
  if (q.get_str("topo", s)) topos.push_back(s);
  std::vector<std::string> arr;
  if (q.get_str_array("topos", arr))
    topos.insert(topos.end(), arr.begin(), arr.end());
  for (const std::string& t : topos) {
    if (t == "Paley(13)" || t == "Hypercube(4)" || t == "DF(4)") continue;
    try {
      (void)topo::parse_topology(t);
      return false;  // parses to something outside the small allowlist
    } catch (...) {
      // unparsable: handle() answers an error frame, which is the point
    }
  }
  // Mutated motif geometry can explode the rank count; only the corpus
  // motif is known-small (anything unparsable errors out cheaply, but
  // telling those apart isn't worth a motif-parser duplicate here).
  if (q.get_str("motif", s) && s != "FFT(4,4)") return false;
  std::uint64_t u = 0;
  if (q.get_u64("messages", u) && u > 1000) return false;
  if (q.get_u64("nranks", u) && u > 4096) return false;
  if (q.get_u64("bytes", u) && u > (1u << 20)) return false;
  double d = 0;
  if (q.get_f64("load", d) && !(d <= 8.0)) return false;
  if (q.get_f64("compute_ns", d) && !(d <= 1e9)) return false;
  return true;
}

TEST(JsonFuzz, ScannerNeverCrashesOnMutants) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(split_seed(0xF022, seed));
    for (const std::string& base : corpus()) {
      for (int i = 0; i < 50; ++i) {
        const std::string mutant = mutate(base, rng);
        JsonObject q;
        if (!JsonObject::scan(mutant, q)) continue;  // rejection is fine
        // Accepted objects must answer accessor probes without crashing.
        std::string sv;
        std::uint64_t uv = 0;
        double dv = 0;
        bool bv = false;
        std::vector<std::uint64_t> av;
        std::vector<std::string> tv;
        for (const char* key : {"id", "kind", "topo", "src", "fail", "topos"}) {
          (void)q.has(key);
          (void)q.get_str(key, sv);
          (void)q.get_u64(key, uv);
          (void)q.get_f64(key, dv);
          (void)q.get_bool(key, bv);
          (void)q.get_u64_array(key, av);
          (void)q.get_str_array(key, tv);
        }
      }
    }
  }
}

TEST(JsonFuzz, HandleAlwaysAnswersAFrame) {
  QueryEngine engine;
  std::uint64_t answered = 0, errors_seen = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(split_seed(0xFA22, seed));
    for (const std::string& base : corpus()) {
      for (int i = 0; i < 25; ++i) {
        const std::string mutant = mutate(base, rng);
        if (!resource_safe(mutant)) continue;
        std::string resp;
        ASSERT_NO_THROW(resp = engine.handle(mutant)) << "seed=" << seed;
        ASSERT_FALSE(resp.empty()) << "seed=" << seed;
        // Every answer is an object frame that states its verdict.
        JsonObject frame;
        bool ok = false;
        ASSERT_TRUE(JsonObject::scan(resp, frame))
            << "seed=" << seed << " " << resp;
        ASSERT_TRUE(frame.get_bool("ok", ok)) << "seed=" << seed << " " << resp;
        ++answered;
        if (!ok) ++errors_seen;
      }
    }
  }
  // The counters reconcile: one query per mutant, one error per error
  // frame — no double counting, no dropped accounting on any path.
  EXPECT_EQ(engine.queries(), answered);
  EXPECT_EQ(engine.errors(), errors_seen);
  // Sanity on the harness itself: mutants overwhelmingly fail, but the
  // duplicate/no-op rounds keep a few valid requests in the stream.
  EXPECT_GT(errors_seen, answered / 2);
}

TEST(JsonFuzz, HostileHandcraftedRequests) {
  QueryEngine engine;
  const std::vector<std::string> hostile = {
      "",
      "{",
      "}",
      "null",
      "[]",
      std::string(1 << 16, '['),
      "{\"kind\":\"route\"" + std::string(1000, ' '),
      std::string("{\"kind\":\"sim\",\"topo\":\"Paley(13)\",\"load\":NaN}"),
      std::string("{\"kind\":\"sim\",\"topo\":\"Paley(13)\",\"load\":1e309}"),
      std::string("{\"kind\":\"route\",\"topo\":\"Paley(13)\",\"src\":"
                  "99999999999999999999999,\"dst\":0}"),
      // embedded NUL inside the topo string ("\x00bad" would swallow
      // the following hex digits b,a into the escape — splice instead)
      [] {
        std::string s = "{\"kind\":\"route\",\"topo\":\"";
        s += '\0';
        s += "bad\",\"src\":0,\"dst\":1}";
        return s;
      }(),
      "{\"kind\":\"rank\",\"topos\":[\"Paley(13)\",42,{}]}",
      "{\"kind\":\"route\",\"topo\":\"Paley(13)\",\"src\":0,\"dst\":1}trailing",
      "{\"id\":\xff\xfe,\"kind\":\"stats\"}",
  };
  for (const std::string& req : hostile) {
    std::string resp;
    ASSERT_NO_THROW(resp = engine.handle(req));
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(resp.front(), '{');
    EXPECT_NE(resp.find("\"ok\":"), std::string::npos);
  }
  // A sim whose offered load is not finite and > 0, or whose motif compute
  // time is negative, is refused before it reaches the simulator.
  const std::string sim = "{\"kind\":\"sim\",\"topo\":\"Paley(13)\",\"nranks\":8,";
  for (const char* tail :
       {"\"load\":NaN}", "\"load\":0}", "\"load\":-1}",
        "\"motif\":\"FFT(4,4)\",\"compute_ns\":-5}"}) {
    const std::string resp = engine.handle(sim + tail);
    EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << tail << " -> " << resp;
  }
}

// Real journal lines: structure and sim rows (one ok:false with control
// bytes in its label and error), and batch headers with and without a
// shard declaration.
std::vector<std::string> journal_corpus() {
  engine::Result r;
  r.index = 12;
  r.topology = "LPS(3,5)";
  r.kind = engine::Kind::kSpectral;
  r.vertices = 120;
  r.radix = 4;
  r.diameter = 5;
  r.mean_hops = 3.4537815126050422;
  r.girth = 6;
  r.lambda = 3.4641016151377544;
  r.mu1 = 0.53589838486224561;
  r.ramanujan = true;
  engine::SimResult ok;
  ok.index = 3;
  ok.topology = "Paley(13)";
  ok.label = "ugal-l/random";
  ok.diameter = 2;
  ok.mean_latency_ns = 1234.5678901234567;
  ok.p99_latency_ns = 2e-7;
  ok.messages = 64;
  ok.delivered = 0.99609375;
  ok.events = 9001;
  ok.packets = 128;
  engine::SimResult bad = ok;
  bad.ok = false;
  bad.label = std::string("lbl\x01\"q\"\\\x1f\n");
  bad.error = "sim failed: \"x\"\t\x02";
  engine::BatchMeta m;
  m.campaign = "fig6";
  m.batch = "speedup";
  m.scenarios = 48;
  m.rows = 48;
  m.decl = 0x0123456789abcdefull;
  engine::BatchMeta sharded = m;
  sharded.shard_index = 1;
  sharded.shard_count = 3;
  sharded.rows = 16;
  std::vector<std::string> lines;
  for (std::string line :
       {engine::jsonl_row(r), engine::jsonl_row(ok), engine::jsonl_row(bad),
        engine::jsonl_meta(m), engine::jsonl_meta(sharded)}) {
    line.pop_back();  // the parsers take lines without the terminator
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(JsonFuzz, JournalParsersRejectOrRoundTripMutants) {
  using engine::CampaignJournal;
  using Analytic = engine::ScenarioKind<engine::Scenario>;
  using Sim = engine::ScenarioKind<engine::SimScenario>;
  const auto corpus = journal_corpus();
  ASSERT_TRUE(Analytic::parse(corpus[0]));
  ASSERT_TRUE(Sim::parse(corpus[1]));
  ASSERT_TRUE(Sim::parse(corpus[2]));
  ASSERT_TRUE(CampaignJournal::parse_meta(corpus[3]));
  ASSERT_TRUE(CampaignJournal::parse_meta(corpus[4]));
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(split_seed(0xF0E1, seed));
    for (const std::string& base : corpus) {
      for (int i = 0; i < 50; ++i) {
        const std::string mutant = mutate(base, rng);
        // Every parser sees every mutant; whatever one accepts must be
        // the exact serialization of what it parsed.
        if (auto r = Analytic::parse(mutant)) {
          EXPECT_EQ(engine::jsonl_row(*r), mutant + "\n") << "seed=" << seed;
          ++accepted;
        }
        if (auto r = Sim::parse(mutant)) {
          EXPECT_EQ(engine::jsonl_row(*r), mutant + "\n") << "seed=" << seed;
          ++accepted;
        }
        if (auto m = CampaignJournal::parse_meta(mutant)) {
          EXPECT_EQ(engine::jsonl_meta(*m), mutant + "\n") << "seed=" << seed;
          ++accepted;
        }
      }
    }
  }
  // Duplicate-span and no-op rounds leave some mutants intact.
  EXPECT_GT(accepted, 0u);
}

TEST(JsonFuzz, HandshakeParsersNeverCrashOnMutants) {
  net::Welcome worker;
  worker.lease_ms = 10000;
  worker.heartbeat_ms = 3333;
  worker.budget_seconds = 12.5;
  net::Welcome busy;
  busy.busy = true;
  net::Welcome probe;
  probe.exe = "bench_fig6_ugal";
  probe.args = {"--ranks", "64", "--label", "dragon \"fly\" \\ [x]"};
  const std::vector<std::string> corpus = {
      net::hello_payload("worker"), net::hello_payload("probe"),
      net::welcome_payload(worker), net::welcome_payload(busy),
      net::welcome_payload(probe)};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(split_seed(0xF0E2, seed));
    for (const std::string& base : corpus) {
      for (int i = 0; i < 50; ++i) {
        const std::string mutant = mutate(base, rng);
        int version = -1;
        std::string role;
        if (net::parse_hello(mutant, version, role)) {
          EXPECT_GE(version, 0) << "seed=" << seed;
        }
        net::Welcome w;
        if (net::parse_welcome(mutant, w)) {
          EXPECT_GE(w.version, 0) << "seed=" << seed;
          EXPECT_GE(w.lease_ms, 0) << "seed=" << seed;
          EXPECT_GE(w.heartbeat_ms, 0) << "seed=" << seed;
          EXPECT_GE(w.budget_seconds, 0.0) << "seed=" << seed;
        }
      }
    }
  }
}

TEST(JsonCodec, EveryByteRoundTripsThroughQuoteAndUnescape) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string s = "<" + std::string(1, static_cast<char>(b)) + ">";
    const std::string quoted = json_quote(s);
    for (const char c : quoted)
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "byte " << b;
    std::string back;
    ASSERT_TRUE(JsonObject::unescape(quoted, back)) << "byte " << b;
    EXPECT_EQ(back, s) << "byte " << b;
    all += static_cast<char>(b);
  }
  std::string back;
  ASSERT_TRUE(JsonObject::unescape(json_quote(all), back));
  EXPECT_EQ(back, all);
}

TEST(JsonCodec, JournalEscapesArePinned) {
  // Literals captured from the escaper every journal so far was written
  // with: named escapes for " \ \n \t \r, lowercase \u00xx for the other
  // control bytes.  Journal bytes are the resume/merge spec.
  const std::string odd = std::string("a\x01") + "\"q\"\\z\x1f\n";
  engine::SimResult s;
  s.index = 3;
  s.topology = "LPS(3,5)";
  s.label = odd;
  s.ok = false;
  s.error = odd;
  s.diameter = 2;
  s.messages = 7;
  EXPECT_EQ(engine::jsonl_row(s),
            R"json({"index":3,"topology":"LPS(3,5)","label":"a\u0001\"q\"\\z\u001f\n",)json"
            R"json("ok":false,"error":"a\u0001\"q\"\\z\u001f\n","diameter":2,)json"
            R"json("max_latency_ns":0,"mean_latency_ns":0,"p99_latency_ns":0,)json"
            R"json("completion_ns":0,"messages":7,"delivered":1,"reroutes":0,)json"
            R"json("drops":0,"post_churn_p99_ns":0,"events":0,"packets":0})json"
            "\n");
  engine::Result r;
  r.index = 4;
  r.topology = odd;
  r.ok = false;
  r.error = odd;
  r.kind = engine::Kind::kStructure;
  EXPECT_EQ(engine::jsonl_row(r),
            R"json({"index":4,"topology":"a\u0001\"q\"\\z\u001f\n","kind":"structure",)json"
            R"json("ok":false,"error":"a\u0001\"q\"\\z\u001f\n","vertices":0,)json"
            R"json("radix":0,"connected":true,"diameter":0,"mean_hops":0,"girth":0,)json"
            R"json("bisection":0,"normalized_bisection":0,"lambda":0,"mu1":0,)json"
            R"json("ramanujan":false,"fiedler_bisection_lb":0,"max_latency_ns":0,)json"
            R"json("mean_latency_ns":0,"p99_latency_ns":0,"completion_ns":0,)json"
            R"json("messages":0,"mean_wire_m":0,"max_wire_m":0,)json"
            R"json("wires_electrical":0,"wires_optical":0,"power_watts":0,)json"
            R"json("mw_per_gbps":0})json"
            "\n");
  engine::BatchMeta m;
  m.batch = odd;
  m.campaign = "c";
  m.scenarios = 5;
  m.decl = 0x1234;
  m.shard_index = 1;
  m.shard_count = 2;
  m.rows = 2;
  EXPECT_EQ(engine::jsonl_meta(m),
            R"json({"batch":"a\u0001\"q\"\\z\u001f\n","campaign":"c","scenarios":5,)json"
            R"json("shard":[1,2],"rows":2,"decl":"0000000000001234"})json"
            "\n");
}

TEST(JsonCodec, ServiceAnswersEscapeControlBytes) {
  // An error echoing a hostile request string must stay valid JSON: the
  // control byte goes out as \u0001, never raw.
  QueryEngine engine;
  const std::string resp = engine.handle(
      R"json({"id":1,"kind":"route","topo":"Paley(13)","src":0,"dst":1,"algo":"ugal\u0001"})json");
  EXPECT_EQ(resp, R"json({"id":1,"ok":false,"error":"unknown algo: ugal\u0001"})json");
}

}  // namespace
}  // namespace sfly::service
