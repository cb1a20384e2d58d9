// sflyd — the long-lived topology-evaluation daemon (docs/SERVICE.md).
//
// Cold start registers topologies from --topos (building graphs, all-pairs
// tables, next-hop indexes, and spectra up front so the first query is not
// a build stall); warm start mmaps a --snapshot written by a previous run
// and serves zero-copy views without rebuilding anything.  Either way the
// daemon then answers route/sim/rank/stats queries over the frame protocol
// until SIGTERM/SIGINT.
//
//   sflyd --topos 'LPS(11,7),SF(9)' --save-snapshot topo.snap --build-only
//   sflyd --snapshot topo.snap --port 7100
//   sflyd --topos 'Paley(13)' --port 0   # ephemeral; see SFLY_LISTEN_PORT_FILE

#include <time.h>

#include <csignal>
#include <cstdio>
#include <cstring>

#include "service/query.hpp"
#include "service/server.hpp"
#include "service/snapshot.hpp"
#include "topo/factory.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--topos SPECS] [--snapshot FILE] [--concentration N]\n"
      "          [--port N] [--threads N] [--save-snapshot FILE] [--build-only]\n"
      "  --topos SPECS        comma/semicolon list, e.g. 'LPS(11,7),SF(9)'\n"
      "  --snapshot FILE      warm start: mmap a snapshot written earlier\n"
      "  --concentration N    endpoints per router for --topos (default 8)\n"
      "  --port N             listen port (default 0 = ephemeral)\n"
      "  --threads N          query worker threads (default: hardware)\n"
      "  --save-snapshot FILE serialize the registered artifacts and exit-able\n"
      "  --build-only         build/save, then exit without serving\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  sfly::bench::Flags flags(
      std::move(args),
      {{"--topos", true, "topology spec list"},
       {"--snapshot", true, "warm-start snapshot file"},
       {"--concentration", true, "endpoints per router (default 8)"},
       {"--port", true, "listen port (0 = ephemeral)"},
       {"--threads", true, "query worker threads"},
       {"--save-snapshot", true, "write artifacts to this snapshot file"},
       {"--build-only", false, "build/save then exit"},
       {"--help", false, "this text"}});
  if (!flags.error().empty()) {
    std::fprintf(stderr, "sflyd: %s\n", flags.error().c_str());
    return usage(argv[0]);
  }
  if (flags.has("--help")) return usage(argv[0]);

  sfly::engine::EngineConfig cfg;
  cfg.threads = static_cast<unsigned>(flags.get("--threads", 0));
  sfly::service::QueryEngine queries(cfg);

  try {
    if (flags.has("--snapshot")) {
      const std::string path = flags.get_str("--snapshot");
      auto snap = sfly::service::Snapshot::open(path);
      sfly::service::Snapshot::load_into(snap, queries.engine().artifacts());
      std::fprintf(stderr, "# sflyd: warm start from %s (%zu bytes, %zu topologies)\n",
                   path.c_str(), snap->size_bytes(),
                   queries.engine().artifacts().names().size());
    }
    if (flags.has("--topos")) {
      sfly::TaskPool pool(cfg.threads);
      const auto concentration =
          static_cast<std::uint32_t>(flags.get("--concentration", 8));
      for (const auto& spec :
           sfly::topo::split_spec_list(flags.get_str("--topos"))) {
        auto parsed = sfly::topo::parse_topology(spec);
        if (queries.engine().artifacts().contains(parsed.name)) continue;
        queries.engine().register_topology(parsed.name, std::move(parsed.build),
                                           concentration);
        // Materialize everything now, routing artifacts on a
        // --threads-wide pool: daemons take the build cost at startup,
        // not on the first unlucky query.  Above the exact threshold
        // routes need only the graph (one BFS row per destination);
        // forcing the O(V^2) tables there would be gigabytes (a sim query
        // on such a topology still builds them lazily).
        auto art = queries.engine().artifacts().get(parsed.name);
        if (art->graph()->num_vertices() <= sfly::engine::kCellExactThreshold)
          (void)art->next_hops(&pool);
        (void)art->spectra();
        const auto f = art->footprint();
        std::fprintf(stderr, "# sflyd: built %s (%zu bytes of artifacts)\n",
                     parsed.name.c_str(), f.total());
      }
    }
    if (queries.engine().artifacts().names().empty()) {
      std::fprintf(stderr, "sflyd: nothing to serve (need --topos and/or --snapshot)\n");
      return 2;
    }
    if (flags.has("--save-snapshot")) {
      const std::string path = flags.get_str("--save-snapshot");
      sfly::service::write_snapshot(path, queries.engine().artifacts());
      std::fprintf(stderr, "# sflyd: snapshot written to %s\n", path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sflyd: %s\n", e.what());
    return 1;
  }
  if (flags.has("--build-only")) return 0;

  sfly::service::ServerConfig scfg;
  scfg.port = static_cast<std::uint16_t>(flags.get("--port", 0));
  scfg.threads = cfg.threads;
  sfly::service::Server server(queries, scfg);
  if (!server.start()) {
    std::fprintf(stderr, "sflyd: cannot bind port %u\n", scfg.port);
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::fprintf(stderr, "# sflyd: serving %zu topologies on port %u\n",
               queries.engine().artifacts().names().size(), server.port());

  while (!g_stop) {
    struct timespec ts{0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.stop();
  std::fprintf(stderr, "# sflyd: stopped (%llu queries, %llu errors)\n",
               static_cast<unsigned long long>(queries.queries()),
               static_cast<unsigned long long>(queries.errors()));
  return 0;
}
