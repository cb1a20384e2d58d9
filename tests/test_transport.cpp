// Cross-machine transport pins: a `--listen`/`--connect` TCP fleet —
// including one whose links are cut, stalled, duplicated, or torn by an
// adversarial proxy — produces stdout and journal bytes identical to an
// uninterrupted single-process run.  A lease that expires fences the
// holder's epoch and its late rows are discarded exactly once; a worker
// that reconnects after a partition rejoins under a fresh epoch; a
// stale worker build is refused over the socket exactly as in a local
// fleet; --max-seconds and SIGTERM stop the fleet resumably, even before
// it assembles; a worker with no parent to join exits 76.  Plus unit pins for the
// length-delimited framing, the handshake payloads, and the
// deterministic reconnect backoff the wire rides on.

#include "util/net.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sfly::net {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Bench binaries, sfly_worker, and flaky_proxy live next to this test
// binary (single-directory CMake build); resolve via /proc/self/exe.
std::string bin_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string tmp(const std::string& name) {
  return std::string(::testing::TempDir()) + "transport_" + name;
}

// Runs `cmd` via the shell, returns its exit code (-1 = didn't exit).
int run(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

// Raw wire bytes for one frame: [u32 len BE][u8 type][u32 seq BE][payload].
std::string wire(FrameType type, std::uint32_t seq,
                 const std::string& payload) {
  std::string out;
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((len >> shift) & 0xff));
  out.push_back(static_cast<char>(type));
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((seq >> shift) & 0xff));
  out += payload;
  return out;
}

// ---------------------------------------------------------------------
// Framing units.

TEST(FrameReader, ReassemblesAByteAtATime) {
  const std::string bytes = wire(FrameType::kData, 7, "{\"index\":0}\n");
  FrameReader fr;
  Frame f;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    fr.feed(bytes.data() + i, 1);
    EXPECT_FALSE(fr.next(f)) << "frame surfaced before its last byte";
  }
  fr.feed(bytes.data() + bytes.size() - 1, 1);
  ASSERT_TRUE(fr.next(f));
  EXPECT_EQ(f.type, FrameType::kData);
  EXPECT_EQ(f.seq, 7u);
  EXPECT_EQ(f.payload, "{\"index\":0}\n");
  EXPECT_FALSE(fr.next(f));
  EXPECT_EQ(fr.pending_bytes(), 0u);
}

TEST(FrameReader, PopsCoalescedFramesInOrderAndHoldsTornTail) {
  const std::string torn = wire(FrameType::kData, 3, "torn-away");
  std::string bytes = wire(FrameType::kHeartbeat, 0, "") +
                      wire(FrameType::kData, 2, "row") +
                      torn.substr(0, torn.size() - 4);
  FrameReader fr;
  fr.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_TRUE(fr.next(f));
  EXPECT_EQ(f.type, FrameType::kHeartbeat);
  ASSERT_TRUE(fr.next(f));
  EXPECT_EQ(f.type, FrameType::kData);
  EXPECT_EQ(f.payload, "row");
  // The torn frame must neither surface nor poison the stream: it is
  // held pending (and would simply vanish if the connection died here).
  EXPECT_FALSE(fr.next(f));
  EXPECT_FALSE(fr.corrupt());
  EXPECT_GT(fr.pending_bytes(), 0u);
  fr.feed(torn.data() + torn.size() - 4, 4);
  ASSERT_TRUE(fr.next(f));
  EXPECT_EQ(f.seq, 3u);
  EXPECT_EQ(f.payload, "torn-away");
}

TEST(FrameReader, OversizeLengthAndUnknownTypeAreCorruption) {
  {
    std::string bytes = wire(FrameType::kData, 1, "x");
    bytes[0] = '\x7f';  // claims a ~2 GB payload
    FrameReader fr;
    fr.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(fr.next(f));
    EXPECT_TRUE(fr.corrupt());
  }
  {
    std::string bytes = wire(static_cast<FrameType>(99), 1, "x");
    FrameReader fr;
    fr.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_FALSE(fr.next(f));
    EXPECT_TRUE(fr.corrupt());
  }
}

// Seeded byte mutants of a valid multi-frame stream, each fed whole and
// in random chunk sizes.  Whatever the bytes, the reader must not crash
// (the sanitizer jobs run this), must pop the same frames however the
// stream is chunked, and once corrupt must stay corrupt and pop nothing.
struct Popped {
  std::vector<Frame> frames;
  bool corrupt = false;
};

bool same_frames(const std::vector<Frame>& a, const std::vector<Frame>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].type != b[i].type || a[i].seq != b[i].seq ||
        a[i].payload != b[i].payload)
      return false;
  return true;
}

// Feeds `bytes` in chunks of 1..max_chunk bytes (max_chunk 0 = whole),
// draining after every feed.
Popped feed_chunked(const std::string& bytes, std::size_t max_chunk,
                    Rng& rng) {
  Popped out;
  FrameReader fr;
  Frame f;
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t n =
        max_chunk == 0 ? bytes.size()
                       : std::min<std::size_t>(
                             bytes.size() - at,
                             1 + uniform_below(rng, max_chunk));
    fr.feed(bytes.data() + at, n);
    at += n;
    const bool was_corrupt = out.corrupt;
    while (fr.next(f)) {
      EXPECT_FALSE(was_corrupt) << "a corrupt reader popped a frame";
      out.frames.push_back(f);
    }
    EXPECT_FALSE(was_corrupt && !fr.corrupt()) << "corruption was cleared";
    out.corrupt = fr.corrupt();
  }
  if (out.corrupt) {
    EXPECT_FALSE(fr.next(f));
  }
  return out;
}

TEST(FrameReader, MutatedStreamsPopTheSameFramesAtAnyChunking) {
  std::string valid;
  valid += wire(FrameType::kHello, 0, R"({"v":2,"role":"worker"})");
  valid += wire(FrameType::kWelcome, 0, R"({"lease_ms":5000})");
  valid += wire(FrameType::kData, 1,
                R"({"batch":"p","campaign":"c","scenarios":2,"decl":"00"})");
  valid += wire(FrameType::kData, 2, R"({"slice":[0,2]})");
  valid += wire(FrameType::kHeartbeat, 0, "");
  valid += wire(FrameType::kData, 3, R"({"index":0,"topology":"DF","ok":true})");
  valid += wire(FrameType::kData, 4, R"j({"index":1,"topology":"LPS(3,5)"})j");
  valid += wire(FrameType::kStop, 5, "");
  valid += wire(FrameType::kBye, 6, "");
  {
    Rng rng(1);
    const Popped whole = feed_chunked(valid, 0, rng);
    ASSERT_EQ(whole.frames.size(), 9u);
    ASSERT_FALSE(whole.corrupt);
  }
  std::size_t corrupt_mutants = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(split_seed(0xF4A3E, seed));
    std::string m = valid;
    const int edits = 1 + static_cast<int>(uniform_below(rng, 4));
    for (int e = 0; e < edits && !m.empty(); ++e) {
      const std::size_t pos = uniform_below(rng, m.size());
      switch (uniform_below(rng, 4)) {
        case 0:  // flip a byte (lengths and types included)
          m[pos] = static_cast<char>(uniform_below(rng, 256));
          break;
        case 1:  // insert a byte
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<char>(uniform_below(rng, 256)));
          break;
        case 2:  // delete a span
          m.erase(pos, 1 + uniform_below(rng, 8));
          break;
        case 3:  // truncate
          m.resize(pos);
          break;
      }
    }
    const Popped whole = feed_chunked(m, 0, rng);
    corrupt_mutants += whole.corrupt ? 1 : 0;
    for (std::size_t max_chunk : {1, 3, 16, 64}) {
      const Popped chunked = feed_chunked(m, max_chunk, rng);
      EXPECT_EQ(chunked.corrupt, whole.corrupt)
          << "seed=" << seed << " chunk<=" << max_chunk;
      EXPECT_TRUE(same_frames(chunked.frames, whole.frames))
          << "seed=" << seed << " chunk<=" << max_chunk;
    }
  }
  // The mutator does reach the corruption path, not only torn tails.
  EXPECT_GT(corrupt_mutants, 0u);
}

TEST(HostPort, ParsesValidAndRejectsMalformed) {
  std::string host;
  std::uint16_t port = 0;
  ASSERT_TRUE(parse_hostport("127.0.0.1:9000", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);
  ASSERT_TRUE(parse_hostport("node7.cluster:41", host, port));
  EXPECT_EQ(host, "node7.cluster");
  EXPECT_EQ(port, 41);
  EXPECT_FALSE(parse_hostport("no-colon", host, port));
  EXPECT_FALSE(parse_hostport("host:", host, port));
  EXPECT_FALSE(parse_hostport(":9000", host, port));
  EXPECT_FALSE(parse_hostport("host:notaport", host, port));
  EXPECT_FALSE(parse_hostport("host:70000", host, port));
  EXPECT_FALSE(parse_hostport("host:+80", host, port));
  EXPECT_FALSE(parse_hostport("host: 80", host, port));
}

TEST(Handshake, HelloAndWelcomeRoundTrip) {
  int v = 0;
  std::string role;
  ASSERT_TRUE(parse_hello(hello_payload("worker"), v, role));
  EXPECT_EQ(v, kProtocolVersion);
  EXPECT_EQ(role, "worker");
  ASSERT_TRUE(parse_hello(hello_payload("probe"), v, role));
  EXPECT_EQ(role, "probe");

  Welcome w;
  w.lease_ms = 10000;
  w.heartbeat_ms = 3333;
  w.budget_seconds = 12.5;
  Welcome back;
  ASSERT_TRUE(parse_welcome(welcome_payload(w), back));
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_FALSE(back.busy);
  EXPECT_EQ(back.lease_ms, 10000);
  EXPECT_EQ(back.heartbeat_ms, 3333);
  EXPECT_NEAR(back.budget_seconds, 12.5, 1e-9);

  Welcome busy;
  busy.busy = true;
  ASSERT_TRUE(parse_welcome(welcome_payload(busy), back));
  EXPECT_TRUE(back.busy);

  // Probe replies carry the binary + argv a joining machine should
  // exec; args with spaces and quotes must survive the JSON trip.
  Welcome probe;
  probe.exe = "bench_fig6_ugal";
  probe.args = {"--ranks", "64", "--label", "dragon \"fly\""};
  ASSERT_TRUE(parse_welcome(welcome_payload(probe), back));
  EXPECT_EQ(back.exe, "bench_fig6_ugal");
  ASSERT_EQ(back.args.size(), 4u);
  EXPECT_EQ(back.args[3], "dragon \"fly\"");
}

TEST(Handshake, RejectsNonIntegerAndOutOfRangeNumbers) {
  // HELLO arrives from anything that connects to a --listen port: an
  // integer field that is fractional, negative, or past int range is a
  // malformed payload, never a truncated or wrapped number.
  int v = 0;
  std::string role;
  for (const char* hello : {R"({"v":1e300,"role":"worker"})",
                            R"({"v":4294967297,"role":"worker"})",
                            R"({"v":1.9,"role":"worker"})",
                            R"({"v":-1,"role":"worker"})"})
    EXPECT_FALSE(parse_hello(hello, v, role)) << hello;
  Welcome w;
  for (const char* welcome : {R"({"v":1,"lease_ms":-5,"hb_ms":1000})",
                              R"({"v":1,"lease_ms":3000,"hb_ms":1e12})",
                              R"({"v":1,"busy":2147483648})",
                              R"({"v":1,"budget_s":-2.5})"})
    EXPECT_FALSE(parse_welcome(welcome, w)) << welcome;
}

TEST(Backoff, GrowsDeterministicallyAndCaps) {
  // Same (attempt, seed) must give the same delay — resumable tests and
  // reproducible fleet behaviour depend on it.
  EXPECT_EQ(backoff_delay_ms(3, 200, 5000, 42),
            backoff_delay_ms(3, 200, 5000, 42));
  // Different seeds de-synchronise a rebooted fleet.
  bool any_differs = false;
  for (std::uint64_t s = 0; s < 8 && !any_differs; ++s)
    any_differs = backoff_delay_ms(3, 200, 5000, s) !=
                  backoff_delay_ms(3, 200, 5000, s + 100);
  EXPECT_TRUE(any_differs);
  // Exponential growth up to the cap, jitter bounded by half a step:
  // delay(k) ∈ [base*2^k, 1.5*base*2^k] before the cap kicks in.
  for (std::size_t k = 0; k < 4; ++k) {
    const std::uint64_t step = 200u << k;
    const std::uint64_t d = backoff_delay_ms(k, 200, 5000, 7);
    EXPECT_GE(d, step);
    EXPECT_LE(d, step + step / 2);
  }
  for (std::size_t k = 10; k < 40; k += 7)
    EXPECT_LE(backoff_delay_ms(k, 200, 5000, 7), 5000u + 2500u);
}

// ---------------------------------------------------------------------
// End-to-end fault matrix.  Every scenario is orchestrated by a small
// /bin/sh script (parent --listen + workers --connect need real process
// trees) and judged the same way: stdout and --json journal bytes must
// equal the uninterrupted single-process run's.

// One loopback fleet scenario; returns the parent's exit code.
struct Fleet {
  std::string name;             // tmp-file prefix, unique per test
  std::string campaign = "--ranks 64 --msgs 4 --seed 1";
  std::string parent_env;       // e.g. "SFLY_TCP_TEST_FENCE=0:2"
  std::string parent_extra;     // e.g. "--max-seconds 0.4"
  int lease_ms = 500;
  std::string proxy_args;       // non-empty: workers dial flaky_proxy
  int direct_workers = 2;       // plain --connect processes
  std::vector<std::string> worker_envs;  // per direct worker, optional
  int supervisors = 0;          // sfly_worker processes (reconnect loop)
  int slots = -1;               // parent --workers; default = all workers
  int join_delay_s = 0;         // workers start this long after the parent
};

int run_fleet(const Fleet& fl) {
  const std::string bench = bin_dir() + "/bench_fig6_ugal";
  const int slots =
      fl.slots > 0 ? fl.slots : fl.direct_workers + fl.supervisors;
  std::string sh;
  sh += "set -u\n";
  sh += "PF=" + tmp(fl.name + ".port") + "; rm -f $PF\n";
  sh += fl.parent_env + (fl.parent_env.empty() ? "" : " ") +
        "SFLY_LISTEN_PORT_FILE=$PF " + bench + " " + fl.campaign +
        " --workers " + std::to_string(slots) + " --listen 0 --lease-ms " +
        std::to_string(fl.lease_ms) + " " + fl.parent_extra + " --json " +
        tmp(fl.name + ".jsonl") + " > " + tmp(fl.name + ".out") + " 2> " +
        tmp(fl.name + ".err") + " &\n";
  sh += "P=$!\n";
  sh += "i=0; while [ $i -lt 200 ] && [ ! -s $PF ]; do sleep 0.05; "
        "i=$((i+1)); done\n";
  sh += "[ -s $PF ] || { kill $P 2>/dev/null; exit 97; }\n";
  sh += "TARGET=$(cat $PF)\n";
  if (!fl.proxy_args.empty()) {
    sh += "XPF=" + tmp(fl.name + ".xport") + "; rm -f $XPF\n";
    sh += bin_dir() + "/flaky_proxy --listen 0 --port-file $XPF "
          "--to 127.0.0.1:$TARGET " + fl.proxy_args + " 2> " +
          tmp(fl.name + ".proxyerr") + " &\n";
    sh += "X=$!\n";
    sh += "i=0; while [ $i -lt 200 ] && [ ! -s $XPF ]; do sleep 0.05; "
          "i=$((i+1)); done\n";
    sh += "[ -s $XPF ] || { kill $P $X 2>/dev/null; exit 96; }\n";
    sh += "TARGET=$(cat $XPF)\n";
  }
  if (fl.join_delay_s > 0)
    sh += "sleep " + std::to_string(fl.join_delay_s) + "\n";
  sh += "PIDS=\n";
  for (int w = 0; w < fl.direct_workers; ++w) {
    const std::string env =
        w < static_cast<int>(fl.worker_envs.size()) ? fl.worker_envs[w] : "";
    // Short dial budget: if the parent aborts the run (e.g. the stale-
    // declaration refusal) the surviving workers must give up in
    // seconds, not the production-sized backoff window.
    sh += env + (env.empty() ? "" : " ") +
          "SFLY_CONNECT_BASE_MS=50 SFLY_CONNECT_ATTEMPTS=6 " +
          bench + " " + fl.campaign + " --connect 127.0.0.1:$TARGET "
          "> /dev/null 2> " + tmp(fl.name + ".w" + std::to_string(w)) +
          " &\nPIDS=\"$PIDS $!\"\n";
  }
  for (int s = 0; s < fl.supervisors; ++s) {
    // Small dial budget: a supervisor stranded by an end-of-run race
    // (BYE lost to the fault schedule) must give up in seconds.
    sh += bin_dir() + "/sfly_worker --connect 127.0.0.1:$TARGET "
          "--attempts 6 --base-ms 50 2> " +
          tmp(fl.name + ".s" + std::to_string(s)) + " &\nPIDS=\"$PIDS $!\"\n";
  }
  sh += "wait $P; rc=$?\n";
  if (!fl.proxy_args.empty()) sh += "kill $X 2>/dev/null\n";
  // Workers exit on BYE or after 2x lease of silence — bounded.
  sh += "for pid in $PIDS; do wait $pid; done\n";
  sh += "exit $rc\n";
  const std::string path = tmp(fl.name + ".sh");
  std::ofstream(path) << sh;
  return run("sh " + path);
}

// Single-process reference for the default small fig6 campaign, written
// under the calling test's own name: ctest runs every case as its own
// process, so a shared reference file would be rewritten by one test
// while another reads it.
void expect_matches_reference(const std::string& name) {
  const std::string ref_jsonl = tmp(name + ".ref.jsonl");
  const std::string ref_out = tmp(name + ".ref.out");
  ASSERT_EQ(run(bin_dir() +
                "/bench_fig6_ugal --ranks 64 --msgs 4 --seed 1 "
                "--threads 1 --json " + ref_jsonl + " > " + ref_out +
                " 2>/dev/null"),
            0);
  EXPECT_EQ(slurp(ref_jsonl), slurp(tmp(name + ".jsonl")))
      << "journal bytes differ from single-process run";
  EXPECT_EQ(slurp(ref_out), slurp(tmp(name + ".out")))
      << "stdout bytes differ from single-process run";
}

TEST(Tcp, FleetMatchesSingleProcessBytes) {
  Fleet fl;
  fl.name = "plain";
  ASSERT_EQ(run_fleet(fl), 0) << slurp(tmp("plain.err"));
  expect_matches_reference("plain");
}

TEST(Tcp, SupervisedFleetMatchesSingleProcessBytes) {
  // sfly_worker probes for the binary + argv and execs it — the
  // one-command way a second machine joins a campaign.
  Fleet fl;
  fl.name = "super";
  fl.direct_workers = 0;
  fl.supervisors = 2;
  ASSERT_EQ(run_fleet(fl), 0) << slurp(tmp("super.err"));
  expect_matches_reference("super");
}

TEST(Tcp, ExpiredLeaseIsFencedAndZombieRowsDiscardedExactlyOnce) {
  // The test hook fences slot 0's epoch after 2 accepted rows — the
  // deterministic stand-in for a lease expiring under a wedged or
  // partitioned worker.  The fenced worker keeps sending rows it
  // already computed; every one must be discarded and re-delivered by
  // the lease's next holder, never double-committed.
  Fleet fl;
  fl.name = "fence";
  fl.parent_env = "SFLY_TCP_TEST_FENCE=0:2";
  // Three workers, two slots: the fenced worker exits on link loss, so
  // the spare (initially busy-rejected, retrying with backoff) is what
  // refills the fenced lease and re-delivers its slice.
  fl.direct_workers = 3;
  fl.slots = 2;
  ASSERT_EQ(run_fleet(fl), 0) << slurp(tmp("fence.err"));
  expect_matches_reference("fence");
  const std::string err = slurp(tmp("fence.err"));
  EXPECT_NE(err.find("test fence firing"), std::string::npos) << err;
  EXPECT_NE(err.find("discarded"), std::string::npos)
      << "no zombie rows were actually exercised:\n" << err;
  EXPECT_NE(err.find("late row(s)"), std::string::npos) << err;
}

TEST(Tcp, WorkerReconnectsAfterLinkCutWithFreshEpoch) {
  // The proxy tears conn 1's link mid-frame (half a DATA frame, then
  // RST-style close) after 2 worker rows.  The supervisor must re-dial
  // with backoff, rejoin under a fresh epoch, and the batch must still
  // come out byte-identical — the torn frame's tail never surfaces.
  Fleet fl;
  fl.name = "cut";
  fl.direct_workers = 0;
  fl.supervisors = 2;
  fl.proxy_args = "--conn 1 --fault cut --after 2";
  ASSERT_EQ(run_fleet(fl), 0) << slurp(tmp("cut.err"));
  expect_matches_reference("cut");
  const std::string err = slurp(tmp("cut.err"));
  // Slots 0 and 1 take epochs 1 and 2; any rejoin proves the cut hit.
  EXPECT_NE(err.find("epoch 3"), std::string::npos)
      << "no reconnect happened — the fault did not land:\n" << err;
}

TEST(Tcp, DuplicatedFramesAreDroppedBySequenceNumber) {
  // A misbehaving middlebox delivering every 3rd worker DATA frame
  // twice must be invisible: the receiver drops seq <= last_seq.
  Fleet fl;
  fl.name = "dup";
  fl.proxy_args = "--conn 1 --fault dup --after 3";
  ASSERT_EQ(run_fleet(fl), 0) << slurp(tmp("dup.err"));
  expect_matches_reference("dup");
}

TEST(Tcp, MidHandshakeCutIsRetried) {
  // The first connection through the proxy loses its WELCOME (cut
  // between HELLO and the reply).  Whether it hits a probe or a worker
  // join, the dial loop must retry and the run complete identically.
  Fleet fl;
  fl.name = "hshake";
  fl.direct_workers = 0;
  fl.supervisors = 2;
  fl.proxy_args = "--conn 0 --fault handshake-cut";
  ASSERT_EQ(run_fleet(fl), 0) << slurp(tmp("hshake.err"));
  expect_matches_reference("hshake");
}

TEST(Tcp, StaleWorkerDeclarationIsRefusedOverSocket) {
  // Same stale-binary refusal as the pipe transport: a worker whose
  // campaign expansion fingerprint disagrees must abort the run, never
  // silently mix its rows in.
  Fleet fl;
  fl.name = "skew";
  fl.worker_envs = {"SFLY_WORKER_DECL_SKEW=1"};
  EXPECT_EQ(run_fleet(fl), 2);
  EXPECT_NE(slurp(tmp("skew.err")).find("declaration mismatch"),
            std::string::npos)
      << slurp(tmp("skew.err"));
}

TEST(Tcp, BudgetStopsFleetGracefullyAndResumesSingleProcess) {
  // ~1 s of work, 0.2 s budget: the TCP fleet must stop with exit 75
  // and a journal that is a line-aligned prefix of the reference, then
  // a plain single-process --resume loop finishes it byte-identically.
  const std::string big = "--ranks 512 --msgs 16 --seed 1";
  const std::string bench = bin_dir() + "/bench_fig6_ugal ";
  const std::string rj = tmp("bref.jsonl"), ro = tmp("bref.out");
  ASSERT_EQ(run(bench + big + " --threads 1 --json " + rj + " > " + ro +
                " 2>/dev/null"),
            0);
  // A worker checks its budget only between deliveries and keeps
  // max(16, 4 x its threads) rows in flight, so it can stop only before
  // its 48-row slice is fully submitted.  With a 0.4 s budget the
  // workers, which join after the parent has listened and then build
  // their own artifacts, often submitted everything in time and the
  // fleet exited 0.  A 0.2 s budget and `--threads 1` (one engine
  // thread per worker, whatever the host's core count) make each
  // worker stop on its first window.
  Fleet fl;
  fl.name = "budget";
  fl.campaign = big + " --threads 1";
  fl.parent_extra = "--max-seconds 0.2";
  ASSERT_EQ(run_fleet(fl), 75) << slurp(tmp("budget.err"));
  const std::string ref = slurp(rj), part = slurp(tmp("budget.jsonl"));
  ASSERT_FALSE(part.empty());
  ASSERT_LT(part.size(), ref.size());
  EXPECT_EQ(ref.compare(0, part.size(), part), 0)
      << "budget-stopped fleet journal is not a prefix of the reference";
  EXPECT_EQ(part.back(), '\n');
  int rc = 75;
  const std::string bj = tmp("budget.jsonl"), bo = tmp("budget.out");
  for (int i = 0; i < 32 && rc == 75; ++i)
    rc = run(bench + big + " --threads 1 --resume " + bj + " > " + bo +
             " 2>/dev/null");
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(ref, slurp(bj));
  EXPECT_EQ(slurp(ro), slurp(bo));
}

TEST(Tcp, BudgetSpentBeforeFleetAssemblesStopsResumably) {
  // One worker joins a two-slot fleet after the parent's budget is
  // spent, so it stops on its first window.  The parent must end the
  // batch on the rows delivered so far (exit 75) rather than wait for a
  // second join that will never come.
  const std::string big = "--ranks 512 --msgs 16 --seed 1";
  const std::string rj = tmp("early.ref.jsonl");
  ASSERT_EQ(run(bin_dir() + "/bench_fig6_ugal " + big + " --threads 1 --json " +
                rj + " > /dev/null 2>&1"),
            0);
  Fleet fl;
  fl.name = "early";
  fl.campaign = big;
  fl.parent_extra = "--max-seconds 0.4";
  fl.slots = 2;
  fl.direct_workers = 1;
  fl.join_delay_s = 1;
  ASSERT_EQ(run_fleet(fl), 75) << slurp(tmp("early.err"));
  const std::string ref = slurp(rj), part = slurp(tmp("early.jsonl"));
  ASSERT_FALSE(part.empty());
  ASSERT_LT(part.size(), ref.size());
  EXPECT_EQ(ref.compare(0, part.size(), part), 0)
      << "budget-stopped fleet journal is not a prefix of the reference";
  EXPECT_EQ(part.back(), '\n');
}

TEST(Tcp, SigtermWhileAssemblingStopsResumably) {
  // A --listen parent that no worker ever joins must still honour the
  // operator's SIGTERM: stop waiting for the fleet, exit 75, and leave
  // a journal that is empty or a line-aligned prefix of the reference.
  const std::string big = "--ranks 512 --msgs 16 --seed 1";
  const std::string bench = bin_dir() + "/bench_fig6_ugal " + big;
  const std::string rj = tmp("asmterm.ref.jsonl");
  ASSERT_EQ(run(bench + " --threads 1 --json " + rj + " > /dev/null 2>&1"), 0);
  const std::string pf = tmp("asmterm.port"), j = tmp("asmterm.jsonl");
  const std::string err = tmp("asmterm.err"), sh = tmp("asmterm.sh");
  std::ofstream(sh) << "rm -f " << pf << "\n"
                    << "SFLY_LISTEN_PORT_FILE=" << pf
                    << " timeout -s KILL 30 " << bench
                    << " --workers 2 --listen 0 --json " << j
                    << " > /dev/null 2> " << err << " &\n"
                    << "P=$!; i=0\n"
                    << "while [ $i -lt 200 ] && [ ! -s " << pf
                    << " ]; do sleep 0.05; i=$((i+1)); done\n"
                    << "kill -TERM $P; wait $P\n";
  ASSERT_EQ(run("timeout 30 sh " + sh), 75) << slurp(err);
  EXPECT_NE(slurp(err).find("stopping on SIGTERM"), std::string::npos)
      << slurp(err);
  const std::string ref = slurp(rj), part = slurp(j);
  EXPECT_EQ(ref.compare(0, part.size(), part), 0)
      << "signal-stopped fleet journal is not a prefix of the reference";
  if (!part.empty()) {
    EXPECT_EQ(part.back(), '\n');
  }
}

TEST(Tcp, ConnectWithNoParentExitsLinkLost) {
  // A --connect worker that finds nobody listening is a lost link, not
  // a crash: exit 76 with a one-line notice, so sfly_worker re-probes
  // instead of charging its crash budget.
  std::uint16_t port = 0;
  const int fd = tcp_listen(0, port);
  ASSERT_GE(fd, 0);
  ::close(fd);  // a just-closed loopback port: nothing accepts there
  const std::string err = tmp("noparent.err");
  EXPECT_EQ(run("SFLY_CONNECT_ATTEMPTS=1 " + bin_dir() +
                "/bench_fig6_ugal --ranks 64 --msgs 4 --seed 1 --connect "
                "127.0.0.1:" + std::to_string(port) + " > /dev/null 2> " +
                err),
            kExitLinkLost);
  EXPECT_NE(slurp(err).find("# --connect: "), std::string::npos)
      << slurp(err);
}

TEST(Tcp, WorkerFlagsAreStrict) {
  // sfly_worker parses its flags like every bench: a malformed number is
  // a usage error (exit 2) before any dial, not a value truncated to 1
  // that would dial a closed port and exit 1.
  EXPECT_EQ(run(bin_dir() +
                "/sfly_worker --connect 127.0.0.1:1 --attempts 3 --base-ms 1x"
                " > /dev/null 2>&1"),
            2);
}

TEST(Tcp, MalformedEnvHooksExitTwoNamingTheVariable) {
  // The transport's numeric environment hooks parse like flags: a value
  // that is not an integer (or SLOT:ROWS) exits 2 naming the variable
  // before the worker dials or the parent spawns, where it was once read
  // as 0 (one dial attempt) or ignored.
  const std::string err = tmp("env_hooks.err");
  const std::string bench = bin_dir() + "/bench_fig6_ugal --ranks 64 --msgs 4 ";
  const struct {
    std::string env, args;
  } rows[] = {
      {"SFLY_CONNECT_ATTEMPTS=3x", "--connect 127.0.0.1:1"},
      {"SFLY_CONNECT_BASE_MS=-5", "--connect 127.0.0.1:1"},
      {"SFLY_TCP_TEST_FENCE=0", "--workers 1"},
      {"SFLY_DISPATCH_TEST_KILL=0:+2", "--workers 1"},
  };
  for (const auto& r : rows) {
    EXPECT_EQ(run("timeout 20 env " + r.env + " " + bench + r.args +
                  " > /dev/null 2> " + err),
              2)
        << r.env;
    const std::string var = r.env.substr(0, r.env.find('='));
    EXPECT_NE(slurp(err).find(var), std::string::npos) << r.env << ": "
                                                       << slurp(err);
  }
}

TEST(Tcp, ProxyFlagsAreStrict) {
  // flaky_proxy parses its flags the same way: a port past 65535 is not
  // truncated to a bindable one (70000 used to bind 4464) and "5x" is not
  // read as 5.  Each exits 2 before binding and names the flag;
  // --max-conns 0 makes a proxy that did start exit 0 at once.
  const std::string err = tmp("proxy_flags.err");
  const std::string proxy = bin_dir() + "/flaky_proxy --to 127.0.0.1:1 --max-conns 0 ";
  EXPECT_EQ(run(proxy + "--listen 70000 > /dev/null 2> " + err), 2);
  EXPECT_NE(slurp(err).find("--listen"), std::string::npos) << slurp(err);
  EXPECT_EQ(run(proxy + "--listen 0 --latency-ms 5x > /dev/null 2> " + err), 2);
  EXPECT_NE(slurp(err).find("--latency-ms"), std::string::npos) << slurp(err);
}

TEST(Tcp, ServiceNumbersMustFitTheirField) {
  // sflyd and sfly_query check every number against its field before
  // they build, bind or dial; narrowed, --port 70000 would serve on port
  // 4464 and --timeout-ms 4294967296 would give up at once.  `timeout 20`
  // ends a daemon that did start serving.
  const std::string err = tmp("service_flags.err");
  const std::string dir = bin_dir();
  const struct {
    std::string cmd, flag;
  } rows[] = {
      {"/sflyd --topos 'Paley(13)' --port 70000", "--port"},
      {"/sflyd --topos 'Paley(13)' --concentration 4294967304",
       "--concentration"},
      {"/sfly_query --connect 127.0.0.1:1 --timeout-ms 4294967296 stats",
       "--timeout-ms"},
      {"/sfly_query --local '' route --topo 'Paley(13)' --src 0 --dst 1 "
       "--fail '0-1,x-3'",
       "--fail"},
  };
  for (const auto& r : rows) {
    EXPECT_EQ(run("timeout 20 " + dir + r.cmd + " > /dev/null 2> " + err), 2)
        << r.cmd;
    const std::string msg = slurp(err);
    EXPECT_NE(msg.find(r.flag), std::string::npos) << r.cmd << ": " << msg;
    EXPECT_EQ(msg.find("# sflyd: built"), std::string::npos) << msg;
  }
}

TEST(Tcp, ToolsPrintHelpFromTheFlagTableAndExitZero) {
  // --help renders each binary's FlagSpec table to stdout and exits 0.
  const std::string out = tmp("tool_help.out");
  for (const char* tool : {"sflyd", "sfly_query", "sfly_worker",
                           "flaky_proxy", "bench_fig6_ugal"}) {
    EXPECT_EQ(run(bin_dir() + "/" + tool + " --help > " + out +
                  " 2> /dev/null"),
              0)
        << tool;
    EXPECT_NE(slurp(out).find("#   --help"), std::string::npos) << tool;
    // Every flag's help text starts in one column, past the longest name
    // and the "<value>" marker.
    std::istringstream lines(slurp(out));
    std::set<std::size_t> columns;
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("#   --", 0) != 0) continue;
      std::size_t at = line.find(' ', 4);
      at = line.find_first_not_of(' ', at);
      if (line.compare(at, 7, "<value>") == 0)
        at = line.find_first_not_of(' ', at + 7);
      columns.insert(at);
    }
    EXPECT_EQ(columns.size(), 1u) << tool << ":\n" << slurp(out);
  }
}

TEST(Tcp, BenchFlagRejectionsExitWhileParsing) {
  // Every rejection of the shared bench surface exits 2 naming its flag
  // before the bench plans, builds, spawns or dials anything: stdout
  // never reaches the --dry-run plan.  No row asks for more than two
  // workers, so an accepted row could not start a large fleet.
  const std::string out = tmp("bench_flags.out"), err = tmp("bench_flags.err");
  const struct {
    std::string args, flag;
  } rows[] = {
      {"--rnaks 64", "--rnaks"},
      {"--msgs 4294967297", "--msgs"},
      {"--threads 4294967297", "--threads"},
      {"--shard 2/2", "--shard"},
      {"--resume P --json Q", "--resume"},
      {"--resume -", "--resume"},
      {"--max-seconds -1", "--max-seconds"},
      {"--workers 0", "--workers"},
      {"--workers 2 --shard 0/2", "--shard"},
      {"--workers 2 --resume P", "--resume"},
      {"--listen 7000", "--listen"},
      {"--workers 2 --lease-ms 99", "--lease-ms"},
      {"--workers 2 --lease-ms 4294967396", "--lease-ms"},
      {"--connect nohost", "--connect"},
      {"--connect h:1 --workers 2", "--connect"},
      {"--connect h:1 --shard 0/2", "--connect"},
      {"--worker-fd x", "--worker-fd"},
      {"--worker-fd 3 --shard 0/2", "--worker-fd"},
      {"--workers 2 --worker-fd 3", "--worker-fd"},
  };
  for (const auto& r : rows) {
    EXPECT_EQ(run("timeout 20 " + bin_dir() + "/bench_fig6_ugal --ranks 64 " +
                  r.args + " --dry-run > " + out + " 2> " + err),
              2)
        << r.args;
    const std::string msg = slurp(err);
    EXPECT_NE(msg.find(r.flag), std::string::npos) << r.args << ": " << msg;
    EXPECT_EQ(std::count(msg.begin(), msg.end(), '\n'), 1)
        << r.args << ": " << msg;
    EXPECT_EQ(slurp(out).find("campaign plan"), std::string::npos) << r.args;
  }
}

// ---------------------------------------------------------------------
// Graceful signal stop and checked-I/O exits ride along with the
// transport work: both protect the same resumable-journal contract.

// Starts `cmd` in the background with stdout to `out`, waits (at most
// 10 s) until it has written its banner there, runs the shell `kills`
// (with the bench's pid in $P) and returns the bench's exit code.
// Benches flush the banner right after installing their stop-signal
// handlers, so signals sent after this wait find the handlers in place.
int signal_when_ready(const std::string& cmd, const std::string& out,
                      const std::string& kills) {
  std::remove(out.c_str());  // a stale banner would end the wait early
  return run(cmd + " > " + out + " & P=$!; i=0; while [ $i -lt 1000 ] && "
             "[ ! -s " + out + " ]; do sleep 0.01; i=$((i+1)); done; " +
             kills + "; wait $P");
}

TEST(Signals, SigtermStopsAtRowBoundaryAndResumes) {
  const std::string big = "--ranks 512 --msgs 16 --seed 1";
  const std::string bench = bin_dir() + "/bench_fig6_ugal ";
  const std::string rj = tmp("sref.jsonl"), ro = tmp("sref.out");
  ASSERT_EQ(run(bench + big + " --threads 1 --json " + rj + " > " + ro +
                " 2>/dev/null"),
            0);
  const std::string sj = tmp("sig.jsonl"), so = tmp("sig.out");
  const std::string err = tmp("sig.err");
  // SIGTERM lands early in a ~2 s run; the bench must finish the rows
  // in flight, flush sinks, and exit 75 with a resumable journal.
  ASSERT_EQ(signal_when_ready(bench + big + " --threads 1 --json " + sj +
                                  " 2> " + err,
                              so, "kill -TERM $P"),
            75);
  EXPECT_NE(slurp(err).find("stopping on SIGTERM"), std::string::npos)
      << slurp(err);
  const std::string ref = slurp(rj), part = slurp(sj);
  ASSERT_FALSE(part.empty());
  ASSERT_LT(part.size(), ref.size());
  EXPECT_EQ(ref.compare(0, part.size(), part), 0)
      << "signal-stopped journal is not a prefix of the reference";
  EXPECT_EQ(part.back(), '\n');
  int rc = 75;
  for (int i = 0; i < 32 && rc == 75; ++i)
    rc = run(bench + big + " --threads 1 --resume " + sj + " > " + so +
             " 2>/dev/null");
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(ref, slurp(sj));
  EXPECT_EQ(slurp(ro), slurp(so));
}

TEST(Signals, RepeatedSigtermIsOneStopRequest) {
  // GNU timeout forwards one SIGTERM twice, to its child and to its
  // process group; two back-to-back copies are still one graceful stop.
  const std::string out = tmp("sig2.out"), err = tmp("sig2.err");
  EXPECT_EQ(signal_when_ready(bin_dir() +
                                  "/bench_fig6_ugal --ranks 512 --msgs 16 "
                                  "--seed 1 --threads 1 2> " + err,
                              out, "kill -TERM $P; kill -TERM $P"),
            75)
      << slurp(err);
  EXPECT_NE(slurp(err).find("stopping on SIGTERM"), std::string::npos)
      << slurp(err);
}

TEST(Signals, DifferentSecondSignalForceExits) {
  // A second, different stop signal is a new request: force out with
  // 128+sig instead of draining.
  const std::string out = tmp("sig3.out");
  EXPECT_EQ(signal_when_ready(bin_dir() +
                                  "/bench_fig6_ugal --ranks 512 --msgs 16 "
                                  "--seed 1 --threads 1 2>/dev/null",
                              out, "kill -INT $P; kill -TERM $P"),
            128 + 15);
}

TEST(IoError, JournalWriteFailureExitsLoudlyWith74) {
  if (run("test -w /dev/full") != 0) GTEST_SKIP() << "/dev/full unavailable";
  const std::string err = tmp("full.err");
  // ENOSPC on the journal must be a loud, distinct failure (EX_IOERR),
  // not a silent truncation that --resume would later misread.
  EXPECT_EQ(run(bin_dir() +
                "/bench_fig6_ugal --ranks 64 --msgs 4 --seed 1 --threads 1 "
                "--json /dev/full > /dev/null 2> " + err),
            74);
  const std::string msg = slurp(err);
  EXPECT_NE(msg.find("--json journal"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--resume"), std::string::npos) << msg;
}

TEST(IoError, MergeWriteFailureExits74) {
  if (run("test -w /dev/full") != 0) GTEST_SKIP() << "/dev/full unavailable";
  const std::string s0 = tmp("m0.jsonl"), s1 = tmp("m1.jsonl");
  const std::string bench = bin_dir() + "/bench_fig6_ugal "
                            "--ranks 64 --msgs 4 --seed 1 --threads 1 ";
  ASSERT_EQ(run(bench + "--shard 0/2 --json " + s0 + " >/dev/null 2>&1"), 0);
  ASSERT_EQ(run(bench + "--shard 1/2 --json " + s1 + " >/dev/null 2>&1"), 0);
  EXPECT_EQ(run(bin_dir() + "/sfly_merge -o /dev/full " + s0 + " " + s1 +
                " 2>/dev/null"),
            74);
}

}  // namespace
}  // namespace sfly::net
