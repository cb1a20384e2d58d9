// Service front-end pins: an sflyd-style Server over a QueryEngine
// answers route/sim/rank/stats over the frame protocol with the exact
// bytes QueryEngine::handle produces in-process; N concurrent clients
// interleaving the same requests each receive responses byte-identical
// to a single sequential client's.  A malformed request costs one error
// frame and never the connection; HELLO version skew and DATA-before-
// HELLO each get a reasoned error frame followed by a close; and a
// server warm-started from a snapshot serves the same answers as the
// cold engine without one table or index rebuild.  Route answers for all
// five algorithms are pinned by digest below and above the exact-tables
// threshold (rows of the tables, BFS rows), also from a snapshot entry
// that carries only the graph and spectra, and ids or counts too large
// for their 32-bit fields get error frames.

#include "service/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "routing/cell_index.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

namespace sfly::service {
namespace {

constexpr int kTimeoutMs = 30000;

// Minimal query client: dial, HELLO/WELCOME, then request/response pairs
// on DATA frames.  Mirrors sfly_query's transport loop.
struct Client {
  int fd = -1;
  net::FrameReader reader;

  explicit Client(std::uint16_t port) {
    fd = net::tcp_connect("127.0.0.1", port);
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  bool hello(const std::string& payload) {
    net::Frame f;
    return net::send_frame(fd, net::FrameType::kHello, 0, payload) &&
           net::read_frame_blocking(fd, f, reader, kTimeoutMs) &&
           f.type == net::FrameType::kWelcome;
  }
  bool greet() { return hello(net::hello_payload("query")); }

  // One request -> one response payload; empty string on any failure.
  std::string ask(const std::string& request) {
    if (!net::send_frame(fd, net::FrameType::kData, 1, request)) return {};
    net::Frame f;
    if (!net::read_frame_blocking(fd, f, reader, kTimeoutMs)) return {};
    return f.type == net::FrameType::kData ? f.payload : std::string{};
  }

  // Next frame payload regardless of type (pre-handshake rejections).
  std::string next_payload() {
    net::Frame f;
    if (!net::read_frame_blocking(fd, f, reader, kTimeoutMs)) return {};
    return f.payload;
  }

  // True when the peer has closed (read returns EOF / no frame).
  bool closed_by_peer() {
    net::Frame f;
    return !net::read_frame_blocking(fd, f, reader, kTimeoutMs);
  }
};

std::vector<std::string> mixed_requests() {
  return {
      R"js({"id":1,"kind":"route","topo":"Paley(13)","src":0,"dst":7,"algo":"ugal-l"})js",
      R"js({"id":2,"kind":"route","topo":"Paley(13)","src":5,"dst":11,"algo":"valiant","seed":9})js",
      R"js({"id":3,"kind":"sim","topo":"Paley(13)","pattern":"random","load":0.5,"seed":42})js",
      R"js({"id":4,"kind":"sim","topo":"Paley(13)","pattern":"transpose","load":0.25,"seed":7})js",
      R"js({"id":5,"kind":"rank","topos":["Paley(13)"],"job_size":64})js",
      R"js({"id":6,"kind":"route","topo":"Paley(13)","src":1,"dst":8,"algo":"minimal"})js",
  };
}

struct Fixture {
  QueryEngine queries;
  std::unique_ptr<Server> server;

  explicit Fixture(unsigned threads = 2) {
    queries.register_spec("Paley(13)");
    ServerConfig cfg;
    cfg.threads = threads;
    server = std::make_unique<Server>(queries, cfg);
    EXPECT_TRUE(server->start());
  }
};

TEST(Service, AnswersMatchInProcessHandleByteForByte) {
  Fixture fx;
  // A second engine over the same topology gives the in-process
  // reference bytes; queries counters never leak into non-stats answers.
  QueryEngine reference;
  reference.register_spec("Paley(13)");

  Client c(fx.server->port());
  ASSERT_TRUE(c.greet());
  for (const auto& req : mixed_requests()) {
    const auto remote = c.ask(req);
    EXPECT_EQ(remote, reference.handle(req)) << req;
    EXPECT_NE(remote.find("\"ok\":true"), std::string::npos) << remote;
  }
  // And one literal pin so a format regression cannot hide behind
  // "remote equals local but both changed":
  EXPECT_EQ(
      c.ask(R"js({"id":1,"kind":"route","topo":"Paley(13)","src":0,"dst":7,"algo":"ugal-l"})js"),
      "{\"id\":1,\"ok\":true,\"kind\":\"route\",\"topology\":\"Paley(13)\","
      "\"algo\":\"ugal-l\",\"src\":0,\"dst\":7,\"valiant\":false,"
      "\"hops\":2,\"path\":[0,10,7]}");
}

TEST(Service, ConcurrentClientsGetSequentialClientBytes) {
  Fixture fx(/*threads=*/4);
  const auto requests = mixed_requests();

  // Reference pass: one client, sequential.
  std::vector<std::string> expected;
  {
    Client c(fx.server->port());
    ASSERT_TRUE(c.greet());
    for (const auto& req : requests) expected.push_back(c.ask(req));
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client c(fx.server->port());
      if (!c.greet()) return;
      // Stagger each client's starting offset so requests interleave.
      for (int r = 0; r < kRounds; ++r)
        for (std::size_t i = 0; i < requests.size(); ++i)
          got[t].push_back(
              c.ask(requests[(i + static_cast<std::size_t>(t)) % requests.size()]));
    });
  }
  for (auto& th : clients) th.join();

  for (int t = 0; t < kClients; ++t) {
    ASSERT_EQ(got[t].size(), requests.size() * kRounds) << "client " << t;
    for (int r = 0; r < kRounds; ++r)
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto idx = (i + static_cast<std::size_t>(t)) % requests.size();
        EXPECT_EQ(got[t][r * requests.size() + i], expected[idx])
            << "client " << t << " round " << r << " request " << idx;
      }
  }
}

TEST(Service, MalformedRequestCostsOneErrorFrameNotTheConnection) {
  Fixture fx;
  Client c(fx.server->port());
  ASSERT_TRUE(c.greet());

  const auto err = c.ask("this is not json");
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos) << err;
  EXPECT_NE(err.find("\"error\""), std::string::npos) << err;

  const auto unknown = c.ask(R"js({"id":9,"kind":"frobnicate"})js");
  EXPECT_NE(unknown.find("\"ok\":false"), std::string::npos) << unknown;

  const auto bad_topo = c.ask(R"js({"id":10,"kind":"route","topo":"Nope(1)","src":0,"dst":1})js");
  EXPECT_NE(bad_topo.find("\"ok\":false"), std::string::npos) << bad_topo;

  // Same connection still answers real queries afterwards.
  const auto ok = c.ask(
      R"js({"id":11,"kind":"route","topo":"Paley(13)","src":0,"dst":7,"algo":"minimal"})js");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  EXPECT_EQ(fx.queries.errors(), 3u);
}

TEST(Service, OutOfRangeIdsGetErrorFramesInsteadOfNarrowing) {
  Fixture fx;
  Client c(fx.server->port());
  ASSERT_TRUE(c.greet());

  // 2^32 would narrow to vertex 0 and silently fail link 0-1.
  for (const char* link : {"[4294967296,1]", "[13,1]", "[0,4294967297]"}) {
    const auto err = c.ask(
        std::string(R"js({"id":1,"kind":"route","topo":"Paley(13)","src":0,"dst":1,"fail":)js") +
        link + "}");
    EXPECT_NE(err.find("\"ok\":false"), std::string::npos) << link << " -> " << err;
    EXPECT_NE(err.find("failed link endpoint out of range (n=13)"), std::string::npos)
        << link << " -> " << err;
  }
  // 2^32 + 16 would narrow to 16.
  for (const std::string key : {"nranks", "messages", "bytes", "vcs"}) {
    const auto err = c.ask(R"js({"id":2,"kind":"sim","topo":"Paley(13)","seed":1,")js" +
                           key + "\":4294967312}");
    EXPECT_NE(err.find("\"ok\":false"), std::string::npos) << key << " -> " << err;
    EXPECT_NE(err.find("\\\"" + key + "\\\" out of range: 4294967312"), std::string::npos)
        << key << " -> " << err;
  }
  const auto motif = c.ask(
      R"js({"id":3,"kind":"sim","topo":"Paley(13)","motif":"FFT(4294967298,2)"})js");
  EXPECT_NE(motif.find("bad motif args"), std::string::npos) << motif;
  EXPECT_EQ(fx.queries.errors(), 8u);
}

TEST(Service, HelloVersionSkewIsRejectedWithBothVersions) {
  Fixture fx;
  Client c(fx.server->port());
  ASSERT_GE(c.fd, 0);
  ASSERT_TRUE(net::send_frame(c.fd, net::FrameType::kHello, 0,
                              "{\"v\":99,\"role\":\"query\"}"));
  const auto err = c.next_payload();
  EXPECT_NE(err.find("version skew"), std::string::npos) << err;
  EXPECT_NE(err.find("v99"), std::string::npos) << err;
  EXPECT_NE(err.find(std::string("v").append(std::to_string(net::kProtocolVersion))),
            std::string::npos)
      << err;
  EXPECT_TRUE(c.closed_by_peer());
}

TEST(Service, DataBeforeHelloIsRejectedAndClosed) {
  Fixture fx;
  Client c(fx.server->port());
  ASSERT_GE(c.fd, 0);
  ASSERT_TRUE(net::send_frame(c.fd, net::FrameType::kData, 0,
                              R"js({"id":1,"kind":"stats"})js"));
  const auto err = c.next_payload();
  EXPECT_NE(err.find("DATA before HELLO"), std::string::npos) << err;
  EXPECT_TRUE(c.closed_by_peer());
}

TEST(Service, WarmRestartedServerServesIdenticalBytesWithoutRebuilds) {
  const std::string snap_path =
      std::string(::testing::TempDir()) + "service_warm.snap";
  const auto requests = mixed_requests();

  // Cold daemon: build, serve, snapshot, remember its answers.
  std::vector<std::string> expected;
  {
    Fixture cold;
    {
      auto art = cold.queries.engine().artifacts().get("Paley(13)");
      (void)art->graph();
      (void)art->tables();
      (void)art->next_hops();
      (void)art->spectra();
    }
    write_snapshot(snap_path, cold.queries.engine().artifacts());
    Client c(cold.server->port());
    ASSERT_TRUE(c.greet());
    for (const auto& req : requests) expected.push_back(c.ask(req));
    cold.server->stop();
  }

  // Warm daemon: mmap the snapshot instead of registering topologies.
  QueryEngine warm;
  auto snap = Snapshot::open(snap_path);
  Snapshot::load_into(snap, warm.engine().artifacts());
  Server server(warm, {});
  ASSERT_TRUE(server.start());

  const auto tables_before = routing::Tables::builds();
  const auto index_before = routing::NextHopIndex::builds();
  Client c(server.port());
  ASSERT_TRUE(c.greet());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(c.ask(requests[i]), expected[i]) << requests[i];
  EXPECT_EQ(routing::Tables::builds(), tables_before);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before);
  server.stop();
}

// FNV-1a over the concatenated QueryEngine::handle route answers for every
// algorithm x a fixed (src, dst, seed) grid on `topo`, plus one Valiant
// query over a failed-link overlay (the link between vertex 0 and its
// first neighbor).  Every answer must be ok.
std::uint64_t route_digest(QueryEngine& queries, const std::string& topo) {
  const std::string name = queries.register_spec(topo);
  const auto g = queries.engine().artifacts().get(name)->graph();
  const std::uint64_t n = g->num_vertices();
  const std::string fail = "[0," + std::to_string(g->neighbors(0)[0]) + "]";
  std::uint64_t h = 14695981039346656037ull;
  auto ask = [&](const std::string& req) {
    const std::string resp = queries.handle(req);
    EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << req << " -> " << resp;
    for (unsigned char c : resp + "\n") {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  std::uint64_t id = 0;
  for (const char* algo : {"minimal", "valiant", "ugal-l", "ugal-g", "adaptive-min"}) {
    const std::string head = "{\"kind\":\"route\",\"topo\":\"" + topo +
                             "\",\"algo\":\"" + algo + "\",\"id\":";
    for (std::uint64_t k = 0; k < 12; ++k) {
      const std::uint64_t src = split_seed(0x5EC, k) % n;
      const std::uint64_t dst = k == 0 ? src : split_seed(0xD57, k) % n;
      ask(head + std::to_string(++id) + ",\"src\":" + std::to_string(src) +
          ",\"dst\":" + std::to_string(dst) + ",\"seed\":" + std::to_string(k + 1) + "}");
    }
  }
  ask("{\"kind\":\"route\",\"topo\":\"" + topo + "\",\"algo\":\"valiant\",\"id\":" +
      std::to_string(++id) + ",\"src\":0,\"dst\":" + std::to_string(n - 1) +
      ",\"seed\":9,\"fail\":" + fail + "}");
  return h;
}

std::uint64_t route_digest(const std::string& topo) {
  QueryEngine queries;
  return route_digest(queries, topo);
}

TEST(Service, RouteAnswersPinnedInExactMode) {
  EXPECT_EQ(route_digest("Paley(13)"), 0x314b6c83a30e1052ull);
  EXPECT_EQ(route_digest("LPS(11,7)"), 0x53116bf383316736ull);
}

TEST(Service, RouteAnswersPinnedInCellMode) {
  // Hypercube(13): 8192 routers, above the exact-tables threshold, so
  // routes run BFS rows (the digest was pinned when a cell index served
  // them).
  EXPECT_EQ(route_digest("Hypercube(13)"), 0x7facc30a1566389cull);
}

TEST(DistanceRows, SnapshotEntryAboveThresholdServesWithoutBuilds) {
  // Above the threshold a snapshot entry is the graph and spectra, no
  // routing blob, and a warm engine answers routes from BFS rows of the
  // mapped graph: the same bytes, and not one table, next-hop or cell
  // build.
  const std::string path =
      std::string(::testing::TempDir()) + "service_rows.snap";
  QueryEngine cold;
  const std::string name = cold.register_spec("Hypercube(13)");
  auto art = cold.engine().artifacts().get(name);
  const auto g = art->graph();
  ASSERT_GT(g->num_vertices(), engine::kCellExactThreshold);
  (void)art->spectra();
  write_snapshot(path, cold.engine().artifacts());

  auto snap = Snapshot::open(path);
  const auto round8 = [](std::size_t b) { return (b + 7) / 8 * 8; };
  EXPECT_EQ(snap->size_bytes(), 64 + 112 + round8(g->raw_offsets().size_bytes()) +
                                    round8(g->raw_adjacency().size_bytes()) + 40)
      << "header, one entry descriptor, graph CSR and spectra only";
  QueryEngine warm;
  Snapshot::load_into(snap, warm.engine().artifacts());
  const auto f = warm.engine().artifacts().get(name)->footprint();
  EXPECT_EQ(f.tables_bytes, 0u);
  EXPECT_EQ(f.next_hops_bytes, 0u);
  EXPECT_EQ(f.cells_bytes, 0u);

  const auto tables_before = routing::Tables::builds();
  const auto index_before = routing::NextHopIndex::builds();
  const auto cells_before = routing::CellIndex::builds();
  EXPECT_EQ(route_digest(warm, name), 0x7facc30a1566389cull);
  EXPECT_EQ(routing::Tables::builds(), tables_before);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before);
  EXPECT_EQ(routing::CellIndex::builds(), cells_before);
  const std::string stats = warm.handle(R"({"id":1,"kind":"stats"})");
  EXPECT_NE(stats.find("\"cells_built\":" + std::to_string(cells_before)),
            std::string::npos)
      << stats;
}

TEST(Service, StopIsIdempotentAndStartReportsPort) {
  QueryEngine queries;
  queries.register_spec("Paley(13)");
  Server server(queries, {});
  ASSERT_TRUE(server.start());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // second stop is a no-op
}

}  // namespace
}  // namespace sfly::service
