#include "service/query.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "engine/sink.hpp"
#include "graph/failures.hpp"
#include "graph/metrics.hpp"
#include "routing/distance_rows.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/policy.hpp"
#include "sim/motifs.hpp"
#include "topo/factory.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace sfly::service {

namespace {

routing::Algo parse_algo(const std::string& name) {
  using routing::Algo;
  for (Algo a : {Algo::kMinimal, Algo::kValiant, Algo::kUgalL, Algo::kUgalG,
                 Algo::kAdaptiveMin})
    if (name == routing::algo_name(a)) return a;
  throw std::invalid_argument("unknown algo: " + name);
}

// Optional u32 field: absent leaves `out` as is; values past UINT32_MAX
// are rejected, never narrowed.
void get_u32(const JsonObject& q, const std::string& key, std::uint32_t& out) {
  std::uint64_t u = 0;
  if (q.get_uint(key, u) && !q.get_uint(key, out))
    throw std::invalid_argument("\"" + key + "\" out of range: " + std::to_string(u));
}

sim::Pattern parse_pattern(const std::string& name) {
  using sim::Pattern;
  for (Pattern p : {Pattern::kRandom, Pattern::kShuffle, Pattern::kBitReverse,
                    Pattern::kTranspose, Pattern::kNeighbor, Pattern::kHotspot})
    if (name == sim::pattern_name(p)) return p;
  throw std::invalid_argument("unknown pattern: " + name);
}

sim::PlacementPolicy parse_placement(const std::string& name) {
  if (name == "random") return sim::PlacementPolicy::kRandom;
  if (name == "linear") return sim::PlacementPolicy::kLinear;
  throw std::invalid_argument("unknown placement: " + name);
}

// "Halo3D26(8,8,8,3)" / "Sweep3D(16,32,8)" / "FFT(22,22)" -> motif factory.
// Mirrors bench/ember_common.hpp's instances; byte counts use the motif
// defaults so service and bench runs agree.
std::function<std::unique_ptr<sim::Motif>()> parse_motif(const std::string& spec) {
  auto parts = parse_spec(spec);
  if (!parts)
    throw std::invalid_argument(std::string("bad motif args (want ") +
                                kSpecGrammar + "): " + spec);
  const std::string& family = parts->family;
  const std::vector<std::uint32_t>& a = parts->args;
  if (family == "halo3d26" && a.size() == 4)
    return [a] { return std::make_unique<sim::Halo3D26>(a[0], a[1], a[2], a[3]); };
  if (family == "sweep3d" && a.size() == 3)
    return [a] { return std::make_unique<sim::Sweep3D>(a[0], a[1], a[2]); };
  if (family == "fft" && a.size() == 2)
    return [a] { return std::make_unique<sim::FftAllToAll>(a[0], a[1]); };
  throw std::invalid_argument("unknown motif (or wrong arity): " + spec);
}

}  // namespace

std::string error_response(std::uint64_t id, const std::string& message) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":false,\"error\":" +
         json_quote(message) + "}";
}

QueryEngine::QueryEngine(engine::EngineConfig cfg) : engine_(cfg) {
  handlers_["route"] = [this](const JsonObject& q, std::uint64_t id) {
    return handle_route(q, id);
  };
  handlers_["sim"] = [this](const JsonObject& q, std::uint64_t id) {
    return handle_sim(q, id);
  };
  handlers_["rank"] = [this](const JsonObject& q, std::uint64_t id) {
    return handle_rank(q, id);
  };
  handlers_["stats"] = [this](const JsonObject& q, std::uint64_t id) {
    return handle_stats(q, id);
  };
}

std::string QueryEngine::register_spec(const std::string& spec) {
  // Fast path: the spec is already a registered (canonical or adopted)
  // name — snapshot-loaded entries answer without any parsing.
  if (engine_.artifacts().contains(spec)) return spec;
  auto parsed = topo::parse_topology(spec);
  if (!engine_.artifacts().contains(parsed.name))
    engine_.register_topology(parsed.name, std::move(parsed.build));
  return parsed.name;
}

std::string QueryEngine::handle(const std::string& request) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t id = 0;
  try {
    JsonObject q;
    if (!JsonObject::scan(request, q))
      throw std::invalid_argument("malformed request (not a flat JSON object)");
    (void)q.get_uint("id", id);
    std::string kind;
    if (!q.get_str("kind", kind))
      throw std::invalid_argument("request is missing \"kind\"");
    const auto it = handlers_.find(kind);
    if (it == handlers_.end())
      throw std::invalid_argument("unknown query kind: " + kind);
    return it->second(q, id);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(id, e.what());
  } catch (...) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(id, "unknown error");
  }
}

std::string QueryEngine::handle_route(const JsonObject& q, std::uint64_t id) {
  std::string topo;
  if (!q.get_str("topo", topo))
    throw std::invalid_argument("route needs \"topo\"");
  std::uint64_t src = 0, dst = 0;
  if (!q.get_uint("src", src) || !q.get_uint("dst", dst))
    throw std::invalid_argument("route needs numeric \"src\" and \"dst\"");
  std::string algo_str = "minimal";
  (void)q.get_str("algo", algo_str);
  const routing::Algo algo = parse_algo(algo_str);
  std::uint64_t seed = 1;
  (void)q.get_uint("seed", seed);

  const std::string name = register_spec(topo);
  auto art = engine_.artifacts().get(name);
  std::shared_ptr<const Graph> g = art->graph();
  const Vertex n = g->num_vertices();

  // Failed-link overlay: "fail":[u1,v1,u2,v2,...].  This is the "what if
  // these links die" probe, so its rows are BFS rows over the overlay
  // graph, never cached.
  std::vector<std::uint64_t> fail;
  if (q.has("fail")) {
    if (!q.get_u64_array("fail", fail) || fail.size() % 2 != 0)
      throw std::invalid_argument(
          "\"fail\" must be a flat [u1,v1,u2,v2,...] link array");
    if (!fail.empty()) {
      auto edges = g->edge_list();
      for (std::size_t i = 0; i < fail.size(); i += 2) {
        if (fail[i] >= n || fail[i + 1] >= n)
          throw std::invalid_argument(
              "failed link endpoint out of range (n=" + std::to_string(n) +
              "): " + std::to_string(fail[i]) + "-" + std::to_string(fail[i + 1]));
        Vertex u = static_cast<Vertex>(fail[i]);
        Vertex v = static_cast<Vertex>(fail[i + 1]);
        if (u > v) std::swap(u, v);
        const auto it = std::find(edges.begin(), edges.end(), std::make_pair(u, v));
        if (it == edges.end())
          throw std::invalid_argument("failed link is not an edge: " +
                                      std::to_string(u) + "-" + std::to_string(v));
        edges.erase(it);
      }
      auto overlay = std::make_shared<const Graph>(Graph::from_edges(n, std::move(edges)));
      // An overlay that splits the topology is an error frame; the daemon
      // stays up.
      if (!is_connected(*overlay))
        throw std::runtime_error("failed links leave the graph disconnected");
      g = std::move(overlay);
    }
  }

  if (src >= n || dst >= n)
    throw std::invalid_argument("src/dst out of range (n=" + std::to_string(n) + ")");

  // Distance rows: rows of the cached all-pairs tables at or below the
  // exact threshold, one BFS per destination above it or over an overlay.
  std::shared_ptr<const routing::Tables> tables;
  if (fail.empty() && n <= engine::kCellExactThreshold) tables = art->tables();

  // Zero-occupancy queue probe: with no live traffic every UGAL decision
  // is minimal (q_min == 0), which keeps route answers reproducible.
  // Rows hold BFS distances of a simple undirected graph (Snapshot::open
  // checks a mapped one), so every hop is one step closer to its target
  // and the walk ends.
  const auto from = static_cast<Vertex>(src), to = static_cast<Vertex>(dst);
  routing::DistanceRows oracle(*g, tables.get());
  routing::PacketRoute route = routing::source_decision(
      algo, oracle, from, to, seed,
      [](Vertex, std::uint16_t) { return std::uint64_t{0}; });
  std::vector<Vertex> path{from};
  for (std::uint64_t hop = 0; path.back() != to; ++hop)
    path.push_back(
        routing::next_hop(oracle, path.back(), to, route, split_seed(seed, hop)).vert);

  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"ok\":true,\"kind\":\"route\",\"topology\":" +
                    json_quote(name) +
                    ",\"algo\":\"" + routing::algo_name(algo) +
                    "\",\"src\":" + std::to_string(src) +
                    ",\"dst\":" + std::to_string(dst) +
                    ",\"valiant\":" + (route.valiant ? "true" : "false");
  if (route.valiant)
    out += ",\"intermediate\":" + std::to_string(route.intermediate);
  out += ",\"hops\":" + std::to_string(path.size() - 1) + ",\"path\":[";
  for (std::size_t i = 0; i < path.size(); ++i)
    out.append(i ? "," : "").append(std::to_string(path[i]));
  out += "]}";
  return out;
}

std::string QueryEngine::handle_sim(const JsonObject& q, std::uint64_t id) {
  std::string topo;
  if (!q.get_str("topo", topo)) throw std::invalid_argument("sim needs \"topo\"");

  engine::SimScenario s;
  s.topology = register_spec(topo);

  std::string algo_str = "minimal";
  (void)q.get_str("algo", algo_str);
  s.algo = parse_algo(algo_str);

  std::string motif;
  if (q.get_str("motif", motif)) {
    s.workload.motif = parse_motif(motif);
    (void)q.get_f64("compute_ns", s.workload.motif_compute_ns);
  } else {
    std::string pattern = "random";
    (void)q.get_str("pattern", pattern);
    s.workload.pattern = parse_pattern(pattern);
  }
  (void)q.get_f64("load", s.workload.offered_load);
  if (!std::isfinite(s.workload.offered_load) || s.workload.offered_load <= 0.0)
    throw std::invalid_argument("sim \"load\" must be finite and > 0");
  if (!std::isfinite(s.workload.motif_compute_ns) || s.workload.motif_compute_ns < 0.0)
    throw std::invalid_argument("sim \"compute_ns\" must be finite and >= 0");
  get_u32(q, "nranks", s.workload.nranks);
  get_u32(q, "messages", s.workload.messages_per_rank);
  get_u32(q, "bytes", s.workload.message_bytes);
  std::string placement;
  if (q.get_str("placement", placement))
    s.workload.placement = parse_placement(placement);
  get_u32(q, "vcs", s.vcs);
  (void)q.get_f64("failure_fraction", s.failure_fraction);
  (void)q.get_uint("seed", s.seed);
  (void)q.get_str("label", s.label);

  // Same code path as the benches (Engine::evaluate), same index 0 —
  // so the embedded row is byte-identical to an in-process evaluation of
  // the same request (the CI probe diffs exactly this).
  engine::SimResult r = engine_.evaluate(s, 0);
  if (!r.ok) throw std::runtime_error("sim failed: " + r.error);

  std::string row = engine::jsonl_row(r);
  while (!row.empty() && (row.back() == '\n' || row.back() == '\r')) row.pop_back();
  return "{\"id\":" + std::to_string(id) +
         ",\"ok\":true,\"kind\":\"sim\",\"row\":" + row + "}";
}

std::string QueryEngine::handle_rank(const JsonObject& q, std::uint64_t id) {
  std::vector<std::string> topos;
  if (!q.get_str_array("topos", topos) || topos.empty())
    throw std::invalid_argument("rank needs a non-empty \"topos\" array");
  std::uint64_t job_size = 0;
  (void)q.get_uint("job_size", job_size);
  std::uint64_t seed = 1;
  (void)q.get_uint("seed", seed);

  struct Entry {
    std::string name;
    std::uint32_t vertices = 0;
    std::uint32_t radix = 0;
    std::uint32_t concentration = 0;
    double diameter = 0.0;
    double mean_hops = 0.0;
    double mu1 = 0.0;
    double lambda = 0.0;
    bool ramanujan = false;
    double fiedler_lb = 0.0;
    bool fits = false;
  };
  std::vector<Entry> entries;
  entries.reserve(topos.size());

  for (const std::string& spec : topos) {
    Entry e;
    e.name = register_spec(spec);
    auto art = engine_.artifacts().get(e.name);
    e.concentration = art->concentration();

    engine::Scenario st;
    st.topology = e.name;
    st.kind = engine::Kind::kStructure;
    st.bisection_restarts = 0;  // the spectral bound stands in for the cut
    st.seed = seed;
    const engine::Result rs = engine_.evaluate(st, 0);
    if (!rs.ok) throw std::runtime_error(e.name + ": " + rs.error);

    engine::Scenario sp;
    sp.topology = e.name;
    sp.kind = engine::Kind::kSpectral;
    sp.seed = seed;
    const engine::Result rp = engine_.evaluate(sp, 0);
    if (!rp.ok) throw std::runtime_error(e.name + ": " + rp.error);

    e.vertices = rs.vertices;
    e.radix = rs.radix;
    e.diameter = rs.diameter;
    e.mean_hops = rs.mean_hops;
    e.mu1 = rp.mu1;
    e.lambda = rp.lambda;
    e.ramanujan = rp.ramanujan;
    e.fiedler_lb = rp.fiedler_bisection_lb;
    e.fits = job_size == 0 ||
             job_size <= static_cast<std::uint64_t>(e.vertices) * e.concentration;
    entries.push_back(std::move(e));
  }

  // Rank: topologies that fit the job first, then by spectral gap (the
  // paper's headline quality metric), then by mean hops, name as the
  // total-order tie-break so the ranking is deterministic.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.fits != b.fits) return a.fits;
    if (a.mu1 != b.mu1) return a.mu1 > b.mu1;
    if (a.mean_hops != b.mean_hops) return a.mean_hops < b.mean_hops;
    return a.name < b.name;
  });

  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"ok\":true,\"kind\":\"rank\",\"job_size\":" +
                    std::to_string(job_size) + ",\"ranking\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out += (i ? "," : "");
    out += "{\"topology\":" + json_quote(e.name) +
           ",\"vertices\":" + std::to_string(e.vertices) +
           ",\"radix\":" + std::to_string(e.radix) +
           ",\"endpoints\":" +
           std::to_string(static_cast<std::uint64_t>(e.vertices) * e.concentration) +
           ",\"diameter\":" + json_f64(e.diameter) +
           ",\"mean_hops\":" + json_f64(e.mean_hops) + ",\"mu1\":" + json_f64(e.mu1) +
           ",\"lambda\":" + json_f64(e.lambda) +
           ",\"ramanujan\":" + (e.ramanujan ? "true" : "false") +
           ",\"fiedler_bisection_lb\":" + json_f64(e.fiedler_lb) +
           ",\"fits\":" + (e.fits ? "true" : "false") + "}";
  }
  out += "]}";
  return out;
}

std::string QueryEngine::handle_stats(const JsonObject&, std::uint64_t id) {
  engine::Artifacts::Footprint sum;
  const auto names = engine_.artifacts().names();
  for (const auto& name : names)
    add_fields(sum, engine_.artifacts().get(name)->footprint());
  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"ok\":true,\"kind\":\"stats\",\"queries\":" +
                    std::to_string(queries_.load()) +
                    ",\"errors\":" + std::to_string(errors_.load()) +
                    ",\"topologies\":[";
  for (std::size_t i = 0; i < names.size(); ++i)
    out.append(i ? "," : "").append(json_quote(names[i]));
  out += "],\"tables_built\":" + std::to_string(routing::Tables::builds()) +
         ",\"index_built\":" + std::to_string(routing::NextHopIndex::builds()) +
         ",\"cells_built\":" + std::to_string(engine::Artifacts::cells_built());
  JsonFields fields{out.append(","), ",", "\":"};
  put_fields(fields, sum);
  return out += '}';
}

}  // namespace sfly::service
