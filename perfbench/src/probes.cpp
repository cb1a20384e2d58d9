// Unit-cost layer probes: each times one public call in a tight loop over
// seed-independent inputs and reports the median of five repetitions.  The
// cell-routing probe instead times one CellIndex build and a fixed set of
// queries on LPS(29,17), the smallest LPS instance above
// engine::kCellExactThreshold.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "engine/artifact_cache.hpp"
#include "partition/recursive_bisection.hpp"
#include "routing/cell_index.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/tables.hpp"
#include "service/json.hpp"
#include "service/query.hpp"
#include "sim/event_queue.hpp"
#include "topo/lps.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 5;

// Median over kReps of (seconds per call) for `calls` calls of body(i).
template <class Body>
double per_call_s(std::size_t calls, Body&& body) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    reps.push_back((now_s() - t0) / static_cast<double>(calls));
  }
  return median(reps);
}

volatile std::uint64_t g_sink;  // defeats dead-code elimination

}  // namespace

UnitCosts measure_unit_costs() {
  UnitCosts u;
  const sfly::Graph g = sfly::topo::lps_graph({11, 7});
  const auto tables = sfly::routing::Tables::build(g);
  const auto idx = sfly::routing::NextHopIndex::build(g, tables);
  const sfly::Vertex n = g.num_vertices();

  // Fixed pseudo-random (u, v != u, entropy) triples and queue depths.
  constexpr std::size_t kPairs = 1 << 14;
  std::vector<sfly::Vertex> us(kPairs), vs(kPairs);
  std::vector<std::uint64_t> es(kPairs), depth(4096);
  for (std::size_t i = 0; i < kPairs; ++i) {
    es[i] = sfly::split_seed(0x9B0B, i);
    us[i] = static_cast<sfly::Vertex>(es[i] % n);
    vs[i] = static_cast<sfly::Vertex>((us[i] + 1 + (es[i] >> 20) % (n - 1)) % n);
  }
  for (std::size_t i = 0; i < depth.size(); ++i)
    depth[i] = sfly::split_seed(0xDE97, i) % 65536;
  const auto probe = [&](sfly::Vertex at, std::uint16_t slot) {
    return depth[(at * 31u + slot) & 4095u];
  };

  constexpr std::size_t kCalls = 1 << 20;
  std::uint64_t acc = 0;
  u.pick_ns = 1e9 * per_call_s(kCalls, [&](std::size_t i) {
    const std::size_t k = i & (kPairs - 1);
    acc += idx.pick(us[k], vs[k], es[k]).vert;
  });
  auto decision = [&](sfly::routing::Algo algo) {
    return 1e9 * per_call_s(kCalls, [&](std::size_t i) {
      const std::size_t k = i & (kPairs - 1);
      const auto r = sfly::routing::source_decision_indexed(
          algo, tables, idx, us[k], vs[k], es[k], probe);
      acc += r.intermediate + r.valiant;
    });
  };
  u.decision_minimal_ns = decision(sfly::routing::Algo::kMinimal);
  u.decision_valiant_ns = decision(sfly::routing::Algo::kValiant);
  u.decision_ugal_ns = decision(sfly::routing::Algo::kUgalL);

  // Steady-state push+pop at a fixed queue depth: pop the earliest event,
  // push one a pseudo-random delay later (the simulator's pattern).
  sfly::sim::EventQueue q;
  for (std::size_t i = 0; i < kProbeQueueDepth; ++i)
    q.push(static_cast<double>(es[i] % 1000), sfly::sim::EventKind::kArrival, i);
  u.event_queue_ns = 1e9 * per_call_s(kCalls, [&](std::size_t i) {
    const sfly::sim::Event e = q.pop();
    q.push(e.time + 1.0 + static_cast<double>(es[i & (kPairs - 1)] % 997),
           e.kind, e.a + 1);
  });

  const std::string request =
      "{\"id\":123456,\"kind\":\"route\",\"topo\":\"LPS(23,13)\",\"src\":517,"
      "\"dst\":1033,\"algo\":\"ugal-l\",\"seed\":9876543210}";
  u.json_scan_us = 1e6 * per_call_s(1 << 16, [&](std::size_t) {
    sfly::service::JsonObject obj;
    acc += sfly::service::JsonObject::scan(request, obj);
  });

  // One frame round trip through a socketpair: encode + write, read +
  // decode.
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw std::runtime_error("socketpair failed");
  sfly::net::FrameReader reader;
  char buf[4096];
  u.frame_us = 1e6 * per_call_s(1 << 15, [&](std::size_t i) {
    if (!sfly::net::send_frame(sv[0], sfly::net::FrameType::kData,
                               static_cast<std::uint32_t>(i), request))
      throw std::runtime_error("send_frame failed");
    sfly::net::Frame f;
    while (!reader.next(f)) {
      const ssize_t got = ::read(sv[1], buf, sizeof buf);
      if (got <= 0) throw std::runtime_error("frame probe read failed");
      reader.feed(buf, static_cast<std::size_t>(got));
    }
    acc += f.payload.size();
  });
  ::close(sv[0]);
  ::close(sv[1]);

  // QueryEngine::handle on the fixture: route queries cycling through the
  // three algorithms over fixed pairs, and stats.
  sfly::service::QueryEngine qe;
  qe.engine().artifacts().register_topology("LPS(11,7)",
                                            [] { return sfly::topo::lps_graph({11, 7}); });
  const char* const algos[] = {"minimal", "valiant", "ugal-l"};
  std::vector<std::string> routes(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i)
    routes[i] = "{\"id\":" + std::to_string(i) +
                ",\"kind\":\"route\",\"topo\":\"LPS(11,7)\",\"src\":" +
                std::to_string(us[i]) + ",\"dst\":" + std::to_string(vs[i]) +
                ",\"algo\":\"" + algos[i % 3] + "\",\"seed\":" + std::to_string(es[i]) + "}";
  (void)qe.handle(routes[0]);  // builds the fixture's tables outside the timing
  u.handle_route_us = 1e6 * per_call_s(1 << 14, [&](std::size_t i) {
    acc += qe.handle(routes[i & (kPairs - 1)]).size();
  });
  const std::string stats = "{\"id\":1,\"kind\":\"stats\"}";
  u.handle_stats_us = 1e6 * per_call_s(1 << 12, [&](std::size_t) {
    acc += qe.handle(stats).size();
  });

  // Cell routing: a cold CellIndex build, its recursive bisection on its
  // own (CellIndex default options), then prepare() toward 16 fixed
  // destinations and one sampled minimal walk into each.
  {
    sfly::engine::ArtifactCache cache;
    cache.register_topology("LPS(29,17)", [] { return sfly::topo::lps_graph({29, 17}); });
    const auto art = cache.get("LPS(29,17)");
    const auto cg = art->graph();
    const sfly::Vertex cn = cg->num_vertices();
    double t0 = now_s();
    const auto cell = art->cell_index();
    u.cell_build_us_per_vertex = 1e6 * (now_s() - t0) / static_cast<double>(cn);

    const sfly::routing::CellIndex::Options co;
    sfly::partition::CellPartitionOptions po;
    po.max_cell_size = co.max_cell_size;
    po.seed = co.seed;
    po.restarts = co.restarts;
    po.fm_passes = co.fm_passes;
    t0 = now_s();
    (void)sfly::partition::recursive_bisection(*cg, po);
    u.recursive_bisection_s = now_s() - t0;

    auto cq = cell->make_query(*cg);
    double prepare_s = 0, hop_s = 0;
    std::uint64_t hops = 0;
    constexpr int kDsts = 16;
    for (int k = 0; k < kDsts; ++k) {
      const std::uint64_t h = sfly::split_seed(0xCE11, static_cast<std::uint64_t>(k));
      const auto dst = static_cast<sfly::Vertex>(h % cn);
      t0 = now_s();
      cq.prepare(dst);
      prepare_s += now_s() - t0;
      sfly::Vertex at = static_cast<sfly::Vertex>((dst + 1 + (h >> 32) % (cn - 1)) % cn);
      t0 = now_s();
      for (std::uint64_t j = 0; at != dst && j < 4u * cell->diameter_bound() + 16; ++j, ++hops)
        at = cq.sample_next_hop(at, sfly::split_seed(h, j));
      if (at != dst) throw std::runtime_error("cell probe walk did not reach its destination");
      hop_s += now_s() - t0;
    }
    u.cell_prepare_ms = 1e3 * prepare_s / kDsts;
    u.cell_hop_ns = 1e9 * hop_s / static_cast<double>(std::max<std::uint64_t>(1, hops));
  }
  g_sink = acc;
  return u;
}

void report_unit_costs(Outcome& out, const UnitCosts& u) {
  set_layer(out, "sim.event_queue_ns", u.event_queue_ns);
  set_layer(out, "routing.pick_ns", u.pick_ns);
  set_layer(out, "routing.decision_ns.minimal", u.decision_minimal_ns);
  set_layer(out, "routing.decision_ns.valiant", u.decision_valiant_ns);
  set_layer(out, "routing.decision_ns.ugal", u.decision_ugal_ns);
  set_layer(out, "service.json_scan_us", u.json_scan_us);
  set_layer(out, "service.frame_us", u.frame_us);
  set_layer(out, "service.handle_us.route", u.handle_route_us);
  set_layer(out, "service.handle_us.stats", u.handle_stats_us);
  set_layer(out, "routing.cell_build_us_per_vertex", u.cell_build_us_per_vertex);
  set_layer(out, "partition.recursive_bisection_s", u.recursive_bisection_s);
  set_layer(out, "routing.cell_prepare_ms", u.cell_prepare_ms);
  set_layer(out, "routing.cell_hop_ns", u.cell_hop_ns);
  out.note("probe_queue_depth", static_cast<double>(kProbeQueueDepth));
}

}  // namespace perfbench
