// sfly_worker — the joining machine's supervisor for cross-machine
// campaigns (docs/CAMPAIGNS.md §Cross-machine runs).
//
//   machine A:  bench_fig6_ugal --full --workers 8 --listen 7070 --json j
//   machine B:  sfly_worker --connect hostA:7070
//
// The supervisor probes the parent (HELLO role "probe") to learn which
// bench binary and argv the fleet is running — so machine B never needs
// to know the campaign's flags, only where the parent listens — then
// execs that binary from --bin-dir with `--connect HOST:PORT` appended.
// The bench process does the real work; the supervisor restarts it:
//
//   exit 0 / 75  fleet finished or budget-stopped: we are done too
//   exit 2       stale binary / usage error: retrying cannot help
//   exit 76      link lost mid-run: re-dial with exponential backoff +
//                jitter and rejoin (the parent replays history and hands
//                the reconnecting worker the remaining slice)
//   crash        counts against --crash-budget (default 8); a bench that
//                keeps dying is a broken deployment, not a network blip
//
// The probe/exec split also serves as a version gate: a parent speaking
// a different frame protocol rejects the probe at HELLO time, before any
// campaign state is exchanged.

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <vector>

#include "util/net.hpp"
#include "util/options.hpp"

namespace net = sfly::net;

namespace {

struct Args {
  std::string host;
  std::uint16_t port = 0;
  std::string bin_dir;
  std::size_t attempts = 40;
  std::uint64_t base_ms = 200;
  std::size_t crash_budget = 8;
  bool once = false;
  bool verbose = false;
};

/// Probe the parent: one framed HELLO(role=probe) -> WELCOME carrying
/// the bench exe + argv.  Returns false when the parent is unreachable
/// within the attempt budget or speaks a different protocol.
bool probe(const Args& a, net::Welcome& out) {
  const auto seed = static_cast<std::uint64_t>(::getpid()) * 2654435761u;
  const int fd = sfly::net::connect_with_backoff(a.host, a.port, a.attempts,
                                                 a.base_ms, 5000, seed);
  if (fd < 0) {
    std::fprintf(stderr, "sfly_worker: cannot reach %s:%u after %zu attempts\n",
                 a.host.c_str(), a.port, a.attempts);
    return false;
  }
  bool ok = sfly::net::send_frame(fd, sfly::net::FrameType::kHello, 1,
                                  sfly::net::hello_payload("probe"));
  sfly::net::Frame f;
  sfly::net::FrameReader fr;
  ok = ok && sfly::net::read_frame_blocking(fd, f, fr, 10000) &&
       f.type == sfly::net::FrameType::kWelcome &&
       sfly::net::parse_welcome(f.payload, out);
  ::close(fd);
  if (!ok) {
    std::fprintf(stderr, "sfly_worker: probe handshake with %s:%u failed\n",
                 a.host.c_str(), a.port);
    return false;
  }
  if (out.version != sfly::net::kProtocolVersion) {
    std::fprintf(stderr,
                 "sfly_worker: parent speaks protocol %d, this build "
                 "speaks %d — upgrade one side\n",
                 out.version, sfly::net::kProtocolVersion);
    return false;
  }
  if (out.exe.empty()) {
    std::fprintf(stderr, "sfly_worker: parent's probe reply named no bench "
                         "binary\n");
    return false;
  }
  return true;
}

/// Run one bench worker process to completion; returns its wait status
/// (-1 when fork itself failed).
int run_bench(const Args& a, const net::Welcome& w) {
  const std::string exe = a.bin_dir + "/" + w.exe;
  std::vector<std::string> argv_s;
  argv_s.push_back(exe);
  for (const auto& s : w.args) argv_s.push_back(s);
  argv_s.push_back("--connect");
  argv_s.push_back(a.host + ":" + std::to_string(a.port));
  if (a.verbose) {
    std::fprintf(stderr, "sfly_worker: exec");
    for (const auto& s : argv_s) std::fprintf(stderr, " %s", s.c_str());
    std::fprintf(stderr, "\n");
  }
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // The worker's stdout is campaign output the PARENT already prints;
    // a second copy here would be noise (and could interleave with the
    // supervisor's own logging).
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    std::vector<char*> argv_c;
    argv_c.reserve(argv_s.size() + 1);
    for (auto& s : argv_s) argv_c.push_back(s.data());
    argv_c.push_back(nullptr);
    ::execv(exe.c_str(), argv_c.data());
    std::fprintf(stderr, "sfly_worker: cannot exec %s: %s\n", exe.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  int st = 0;
  while (::waitpid(pid, &st, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return st;
}

}  // namespace

int main(int argc, char** argv) {
  // The same strict parser as the benches, sflyd and sfly_query: unknown
  // or repeated flags and malformed numbers ("12x") exit 2.
  const sfly::bench::Flags flags(
      std::vector<std::string>(argv + 1, argv + argc),
      {{"--connect", true, "the parent's HOST:PORT listen address (required)"},
       {"--bin-dir", true,
        "where bench binaries live (default: the directory sfly_worker "
        "itself runs from)"},
       {"--attempts", true, "dial attempts per (re)connect (default 40)"},
       {"--base-ms", true, "backoff base delay in ms (default 200)"},
       {"--crash-budget", true,
        "bench crashes tolerated before giving up (default 8)"},
       {"--once", false,
        "no reconnect loop: run the bench once and exit with its status"},
       {"--verbose", false, "log probe/exec/restart decisions"},
       {"--help", false, "this help"},
       {"-h", false, "this help"}});
  flags.exit_on_error_or_help(
      "sfly_worker",
      "sfly_worker --connect HOST:PORT: join a --listen campaign parent as "
      "a worker machine");
  Args a;
  a.bin_dir = flags.get_str("--bin-dir");
  a.attempts = std::max<std::size_t>(1, flags.get("--attempts", a.attempts));
  a.base_ms = flags.get("--base-ms", a.base_ms);
  a.crash_budget = flags.get("--crash-budget", a.crash_budget);
  a.once = flags.has("--once");
  a.verbose = flags.has("--verbose");
  const std::string spec = flags.get_str("--connect");
  if (spec.empty() || !net::parse_hostport(spec, a.host, a.port)) {
    std::fprintf(stderr, "sfly_worker: --connect HOST:PORT is required\n");
    return 2;
  }
  if (a.bin_dir.empty()) {
    // Default to our own directory: fleets deploy sfly_worker next to
    // the bench binaries it runs.
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
      buf[n] = '\0';
      std::string self(buf);
      const auto slash = self.rfind('/');
      a.bin_dir = slash == std::string::npos ? "." : self.substr(0, slash);
    } else {
      a.bin_dir = ".";
    }
  }
  ::signal(SIGPIPE, SIG_IGN);
  // The bench child dials with the same budget we do, so one pair of
  // --attempts/--base-ms flags governs every reconnect in this tree
  // (explicit SFLY_CONNECT_* in the environment still wins).
  ::setenv("SFLY_CONNECT_ATTEMPTS", std::to_string(a.attempts).c_str(), 0);
  ::setenv("SFLY_CONNECT_BASE_MS", std::to_string(a.base_ms).c_str(), 0);

  std::size_t crashes = 0;
  bool ever_probed = false;
  for (;;) {
    // The probe itself can lose its link mid-handshake (the same faults
    // the worker survives), so give it a few tries before giving up —
    // but only on the FIRST join.  Once the parent has answered a probe,
    // a parent that stays unreachable through a whole dial budget is
    // gone (campaign finished, or the machine left): exit cleanly
    // instead of burning more budgets against a closed port.
    net::Welcome w;
    bool probed = false;
    for (std::size_t t = 0; t < 3 && !(probed = probe(a, w)); ++t) {
      if (ever_probed) break;
      ::poll(nullptr, 0, static_cast<int>(net::backoff_delay_ms(
                 t, a.base_ms, 5000, static_cast<std::uint64_t>(::getpid()))));
    }
    if (!probed) {
      if (ever_probed) {
        std::fprintf(stderr,
                     "sfly_worker: parent %s:%u is gone — assuming the "
                     "campaign ended\n",
                     a.host.c_str(), a.port);
        return 0;
      }
      return 1;
    }
    ever_probed = true;
    const int st = run_bench(a, w);
    if (st < 0) {
      std::fprintf(stderr, "sfly_worker: fork/wait failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    if (WIFEXITED(st)) {
      const int rc = WEXITSTATUS(st);
      if (a.once) return rc;
      if (rc == 0 || rc == 75) {
        if (a.verbose)
          std::fprintf(stderr, "sfly_worker: bench exited %d — fleet done\n",
                       rc);
        return 0;
      }
      if (rc == net::kExitLinkLost) {
        std::fprintf(stderr,
                     "sfly_worker: link to %s:%u lost — reconnecting\n",
                     a.host.c_str(), a.port);
        continue;  // probe() re-dials with backoff
      }
      if (rc == 2 || rc == 127) {
        std::fprintf(stderr,
                     "sfly_worker: bench exited %d (stale binary / usage / "
                     "exec failure) — retrying cannot help\n",
                     rc);
        return rc;
      }
      ++crashes;
    } else {
      ++crashes;  // killed by a signal
    }
    if (a.once) return 1;
    if (crashes > a.crash_budget) {
      std::fprintf(stderr,
                   "sfly_worker: bench crashed %zu time(s) — out of crash "
                   "budget, giving up\n",
                   crashes);
      return 1;
    }
    std::fprintf(stderr,
                 "sfly_worker: bench crashed (%zu/%zu) — restarting\n",
                 crashes, a.crash_budget);
  }
}
