// sflyd — the long-lived topology-evaluation daemon (docs/SERVICE.md).
//
// Cold start registers topologies from --topos; warm start mmaps a
// --snapshot written by a previous run, adopting its graphs and spectra
// (the spectra are the costly part).  Either way the daemon then builds
// what serving needs for every topology on the engine's --threads-wide
// pool (the all-pairs tables and next-hop index at or below the exact
// threshold, the spectra if missing), so the first query is not a build
// stall, and answers route/sim/rank/stats queries over the frame protocol
// on that same pool until SIGTERM/SIGINT.
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

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const sfly::bench::Flags flags(
      std::move(args),
      {{"--topos", true,
        "topologies to build (comma/semicolon list, e.g. "
        "'LPS(11,7),SF(9)')"},
       {"--snapshot", true, "warm start: mmap a snapshot file written earlier"},
       {"--concentration", true,
        "endpoints per router for --topos (default 8)"},
       {"--port", true, "listen port (default 0 = ephemeral)"},
       {"--threads", true, "startup build and query threads (default: hardware)"},
       {"--save-snapshot", true,
        "serialize the registered artifacts to this file"},
       {"--build-only", false, "build (and save), then exit without serving"},
       {"--help", false, "this help"}});
  flags.exit_on_error_or_help(
      "sflyd", "sflyd: serve route/sim/rank/stats queries over topologies "
               "built from --topos and/or mmap'd from --snapshot");
  // Every number is checked before anything is built or bound.
  const auto threads = flags.get<unsigned>("--threads", 0);
  const auto concentration = flags.get<std::uint32_t>("--concentration", 8);
  const auto port = flags.get<std::uint16_t>("--port", 0);

  sfly::service::QueryEngine queries({.threads = threads});

  auto& cache = queries.engine().artifacts();
  try {
    if (flags.has("--snapshot")) {
      const std::string path = flags.get_str("--snapshot");
      auto snap = sfly::service::Snapshot::open(path);
      sfly::service::Snapshot::load_into(snap, cache);
      std::fprintf(stderr, "# sflyd: warm start from %s (%zu bytes, %zu topologies)\n",
                   path.c_str(), snap->size_bytes(), cache.names().size());
    }
    if (flags.has("--topos"))
      for (const auto& spec :
           sfly::topo::split_spec_list(flags.get_str("--topos"))) {
        auto parsed = sfly::topo::parse_topology(spec);
        if (cache.contains(parsed.name)) continue;
        queries.engine().register_topology(parsed.name, std::move(parsed.build),
                                           concentration);
      }
    if (cache.names().empty()) {
      std::fprintf(stderr, "sflyd: nothing to serve (need --topos and/or --snapshot)\n");
      return 2;
    }
    // One materialization loop for --snapshot and --topos entries alike,
    // on the engine's pool before any query is submitted to it: daemons
    // take the build cost at startup, not on the first unlucky query.
    for (const auto& name : cache.names()) {
      auto art = cache.get(name);
      art->materialize();
      std::fprintf(stderr, "# sflyd: built %s (%zu bytes of artifacts)\n",
                   name.c_str(), art->footprint().total());
    }
    if (flags.has("--save-snapshot")) {
      const std::string path = flags.get_str("--save-snapshot");
      sfly::service::write_snapshot(path, cache);
      std::fprintf(stderr, "# sflyd: snapshot written to %s\n", path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sflyd: %s\n", e.what());
    return 1;
  }
  if (flags.has("--build-only")) return 0;

  // Handlers first: start() writes $SFLY_LISTEN_PORT_FILE, which scripts
  // read as "ready", and a SIGTERM sent the moment it appears must stop
  // the daemon cleanly rather than take the default action.
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  sfly::service::Server server(queries, port);
  if (!server.start()) {
    std::fprintf(stderr, "sflyd: cannot bind port %u\n", port);
    return 1;
  }
  std::fprintf(stderr, "# sflyd: serving %zu topologies on port %u\n",
               cache.names().size(), server.port());

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
