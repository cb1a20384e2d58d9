// Scale bench — distance-row routing at 50k+ routers.
//
// The exact all-pairs Tables artifact is O(V^2) bytes (2.7 GB of distance
// matrix alone at 52k routers), so above engine::kCellExactThreshold sflyd
// routes over routing::DistanceRows: one BFS from the destination into an
// n-byte row, then the count-then-pick neighbour scan per hop.  This
// bench drives that oracle directly — graph construction, one BFS row per
// sampled destination, and sampled minimal walks into it — on a
// SpectralFly instance and a port-comparable DragonFly, and records
// wall-clock, per-hop cost and peak RSS against the projected exact-table
// cost.
//
// Standalone by design: it never touches engine::Campaign, whose
// scenario kinds would materialize the O(V^2) tables this bench exists
// to avoid.  Default preset is the ~1.1k-router pair from the paper's
// simulations (seconds); --full is the 50k+ sweep committed as
// BENCH_scale.json:
//   LPS(71,47)            51,888 routers, radix 72 (SpectralFly)
//   DF(a=48,h=24,g=1153)  55,344 routers, radix 71
// Every row and walk is serial; --threads changes nothing here.
//
// Every sampled walk self-checks: each picked hop must be a neighbour one
// step closer by the row, so the walk reaches the destination in exactly
// distance(src) hops.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "routing/distance_rows.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace sfly;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The process's peak resident set so far (getrusage reports KiB).
double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct ScaleRow {
  std::string name;
  std::uint64_t routers = 0;
  std::uint32_t radix = 0;
  std::uint64_t edges = 0;
  double graph_build_s = 0;
  std::uint64_t row_bytes = 0;              // one distance row
  std::uint64_t projected_exact_bytes = 0;  // V^2 distance matrix alone
  std::uint32_t ecc_max = 0;  // largest distance in any sampled row
  std::uint64_t queries = 0;
  double row_ms_mean = 0;  // one BFS row per destination
  double hop_ns_mean = 0;  // one pick over the row
  double walk_hops_mean = 0;
  std::uint32_t walk_hops_max = 0;
  double peak_rss_mb = 0;  // process peak after this topology
};

ScaleRow run_one(const std::string& name, const Graph& g, double graph_s,
                 std::uint64_t ndst, std::uint64_t nsrc_per_dst,
                 std::uint64_t seed) {
  ScaleRow row;
  row.name = name;
  row.routers = g.num_vertices();
  row.radix = g.degree(0);
  row.edges = g.num_edges();
  row.graph_build_s = graph_s;
  row.row_bytes = g.num_vertices();
  row.projected_exact_bytes =
      static_cast<std::uint64_t>(g.num_vertices()) * g.num_vertices();

  routing::DistanceRows rows(g);
  Rng rng(seed);
  const Vertex n = g.num_vertices();
  double row_s = 0, hop_s = 0;
  std::uint64_t hops_total = 0, walks = 0;
  std::vector<Vertex> path;
  for (std::uint64_t d = 0; d < ndst; ++d) {
    const Vertex dst = static_cast<Vertex>(uniform_below(rng, n));
    auto t0 = std::chrono::steady_clock::now();
    rows.prepare(dst);
    row_s += seconds_since(t0);
    for (Vertex u = 0; u < n; ++u)
      if (rows.distance(u) > row.ecc_max) row.ecc_max = rows.distance(u);
    for (std::uint64_t s = 0; s < nsrc_per_dst; ++s) {
      Vertex src = static_cast<Vertex>(uniform_below(rng, n));
      if (src == dst) src = (src + 1) % n;
      // Time the picks alone, then check the walk: every hop a neighbour
      // one step closer by the row, so the walk length is d(src).
      path.assign(1, src);
      t0 = std::chrono::steady_clock::now();
      while (path.back() != dst && path.size() <= 255)
        path.push_back(rows.pick(path.back(), split_seed(seed, path.size())).vert);
      hop_s += seconds_since(t0);
      const auto hops = static_cast<std::uint32_t>(path.size() - 1);
      for (std::uint32_t h = 0; h < hops; ++h) {
        const Vertex at = path[h], next = path[h + 1];
        const auto nb = g.neighbors(at);
        if (rows.distance(next) + 1 != rows.distance(at) ||
            std::find(nb.begin(), nb.end(), next) == nb.end()) {
          std::fprintf(stderr, "error: %s walk %u->%u: hop %u->%u is not minimal\n",
                       name.c_str(), src, dst, at, next);
          std::exit(2);
        }
      }
      if (path.back() != dst || hops != rows.distance(src)) {
        std::fprintf(stderr, "error: %s walk %u->%u took %u hops, d=%u\n",
                     name.c_str(), src, dst, hops, rows.distance(src));
        std::exit(2);
      }
      hops_total += hops;
      ++walks;
      if (hops > row.walk_hops_max) row.walk_hops_max = hops;
    }
    row.queries += nsrc_per_dst;
  }
  row.row_ms_mean = ndst ? row_s * 1e3 / static_cast<double>(ndst) : 0;
  row.hop_ns_mean =
      hops_total ? hop_s * 1e9 / static_cast<double>(hops_total) : 0;
  row.walk_hops_mean =
      walks ? static_cast<double>(hops_total) / static_cast<double>(walks) : 0;
  row.peak_rss_mb = peak_rss_mb();
  return row;
}

void print_row(const ScaleRow& r) {
  std::printf(
      "%-22s %7llu routers  radix %-3u  graph %6.2f s  row %7.2f ms  "
      "hop %7.1f ns  %6.3f MB/row (exact: %7.1f MB)  hops mean %.2f max %u "
      "<= ecc %u  peak RSS %6.1f MB\n",
      r.name.c_str(), static_cast<unsigned long long>(r.routers), r.radix,
      r.graph_build_s, r.row_ms_mean, r.hop_ns_mean,
      static_cast<double>(r.row_bytes) / 1e6,
      static_cast<double>(r.projected_exact_bytes) / 1e6, r.walk_hops_mean,
      r.walk_hops_max, r.ecc_max, r.peak_rss_mb);
}

void write_json(const std::string& path, bool full,
                const std::vector<ScaleRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_scale\",\n"
               "  \"oracle\": \"distance_rows\",\n"
               "  \"nproc\": %d,\n"
               "  \"threads\": 1,\n"
               "  \"full\": %s,\n"
               "  \"topologies\": [",
               hardware_threads(), full ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(
        f,
        "%s\n    {\"name\": \"%s\", \"routers\": %llu, \"radix\": %u, "
        "\"edges\": %llu,\n"
        "     \"graph_build_s\": %.3f, \"row_bytes\": %llu, "
        "\"projected_exact_bytes\": %llu,\n"
        "     \"queries\": %llu, \"row_ms_mean\": %.3f, \"hop_ns_mean\": %.1f,\n"
        "     \"ecc_max\": %u, \"walk_hops_mean\": %.3f, \"walk_hops_max\": %u,\n"
        "     \"peak_rss_mb\": %.1f}",
        i ? "," : "", r.name.c_str(),
        static_cast<unsigned long long>(r.routers), r.radix,
        static_cast<unsigned long long>(r.edges), r.graph_build_s,
        static_cast<unsigned long long>(r.row_bytes),
        static_cast<unsigned long long>(r.projected_exact_bytes),
        static_cast<unsigned long long>(r.queries), r.row_ms_mean, r.hop_ns_mean,
        r.ecc_max, r.walk_hops_mean, r.walk_hops_max, r.peak_rss_mb);
  }
  if (std::fprintf(f, "\n  ]\n}\n") < 0) {
    std::fprintf(stderr, "error: writing %s failed: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Scale: distance-row routing at 50k+ routers (one BFS row per "
       "destination, no O(V^2) tables)",
       "#   --queries N    destination samples per topology (default 64)\n"
       "#   --sources N    source walks per destination (default 4)\n"
       "#   --out PATH     JSON record path (default BENCH_scale.json)",
       {{"--queries", true, "destination samples per topology (default 64)"},
        {"--sources", true, "source walks per destination (default 4)"},
        {"--out", true, "JSON record path (default BENCH_scale.json)"}}});
  const bool full = opts.full();
  const std::uint64_t ndst = opts.flags().get("--queries", 64);
  const std::uint64_t nsrc = opts.flags().get("--sources", 4);
  const std::string out = opts.flags().get_str("--out", "BENCH_scale.json");
  const std::uint64_t seed = opts.seed_or(1);

  // --full: the 50k+ sweep this bench exists for.  Default: the paper's
  // simulation-scale pair, same code path in seconds.
  const topo::LpsParams lps = full ? topo::LpsParams{71, 47}
                                   : topo::LpsParams{23, 13};
  const topo::DragonFlyParams df =
      full ? topo::DragonFlyParams{48, 24, 1153}
           : topo::DragonFlyParams{16, 8, 69};

  std::vector<ScaleRow> rows;
  for (int t = 0; t < 2; ++t) {
    const std::string name = t == 0 ? lps.name() : df.name();
    std::fprintf(stderr, "# building %s ...\n", name.c_str());
    const auto t0 = std::chrono::steady_clock::now();
    const Graph g = t == 0 ? topo::lps_graph(lps) : topo::dragonfly_graph(df);
    const double graph_s = seconds_since(t0);
    rows.push_back(run_one(name, g, graph_s, ndst, nsrc, seed));
    print_row(rows.back());
  }
  write_json(out, full, rows);
  std::fprintf(stderr, "# wrote %s\n", out.c_str());
  return 0;
}
