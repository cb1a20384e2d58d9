// flaky_proxy — deterministic fault-injecting TCP proxy for exercising
// the cross-machine dispatch path (docs/CAMPAIGNS.md §Cross-machine
// runs, tests/test_transport.cpp, CI's "Cross-machine dispatch" stage).
//
//   flaky_proxy --listen 0 --to 127.0.0.1:7070 --conn 0 --fault stall
//       --after 5 --stall-ms 12000
//
// Workers dial the proxy instead of the parent; the proxy forwards the
// framed wire both ways and injects exactly the fault you asked for, at
// exactly the frame you asked for — no randomness, so every CI run and
// every test replays the identical fault schedule.
//
// The worker->parent direction is decoded frame by frame (util/net.hpp
// framing), which is what makes the faults precise: "--after N" counts
// DATA frames from that worker, and a "cut" severs the stream half way
// through a serialized frame so the parent provably handles a torn
// frame.  The parent->worker direction is forwarded raw.
//
// Connections are numbered two ways: --fault handshake-cut selects by
// raw accept order (the fault fires before any DATA exists), every
// other fault selects by DATA-conn order — the Nth connection that sent
// a DATA frame — so probe connections (sfly_worker asking what to exec)
// never shift the target.
//
// Faults (one structured fault per proxy; --latency-ms composes):
//   latency     --latency-ms L: delay every byte L ms, both directions
//   stall       pause BOTH directions --stall-ms ms after --after DATA
//               frames (a symmetric partition; leases expire, epochs get
//               fenced, buffered rows surface later as zombies)
//   stall-up    pause only worker->parent (directional partition)
//   cut         forward half of DATA frame #(--after+1), then close
//               both sides (torn frame + dead link mid-slice)
//   dup         send every --dup-every'th DATA frame twice (the seq
//               number must catch the duplicate)
//   handshake-cut  close both sides when the parent's reply to this
//               connection first arrives (HELLO sent, WELCOME lost)

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <list>
#include <string>
#include <vector>

#include "util/net.hpp"
#include "util/options.hpp"

namespace net = sfly::net;
using Clock = std::chrono::steady_clock;

namespace {

struct Opts {
  std::uint16_t listen_port = 0;
  std::string port_file;
  std::string to_host;
  std::uint16_t to_port = 0;
  int latency_ms = 0;
  long conn = -1;
  std::string fault;
  std::size_t after = 0;
  int stall_ms = 0;
  std::size_t dup_every = 0;
  long max_conns = -1;
};

struct Chunk {
  Clock::time_point release;
  std::string bytes;
};

struct Pair {
  int cfd = -1;  // worker side
  int sfd = -1;  // parent side
  net::FrameReader fr;  // decodes the worker->parent stream
  std::deque<Chunk> to_s, to_c;
  std::size_t raw_index = 0;
  long data_index = -1;  // assigned on this conn's first DATA frame
  std::size_t data_frames = 0;
  Clock::time_point stall_until{};  // both directions held until then
  Clock::time_point stall_up_until{};
  bool cut_after_flush = false;  // torn frame queued: close when drained
  bool await_handshake_cut = false;
  bool c_eof = false, s_eof = false;
  bool dead = false;
};

std::string serialize(const net::Frame& f) {
  std::string out;
  net::append_frame(out, f.type, f.seq, f.payload);
  return out;
}

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

}  // namespace

int main(int argc, char** argv) {
  // The same strict parser as the benches, sflyd and sfly_worker: unknown
  // or repeated flags and malformed numbers ("5x") exit 2.
  const sfly::bench::Flags flags(
      std::vector<std::string>(argv + 1, argv + argc),
      {{"--listen", true, "port to accept workers on (0 = ephemeral)"},
       {"--port-file", true, "write the bound port to this file (--listen 0)"},
       {"--to", true, "the real campaign parent's HOST:PORT"},
       {"--latency-ms", true, "delay all forwarded bytes by this many ms"},
       {"--conn", true,
        "which connection the fault hits: the Nth accepted for "
        "handshake-cut, else the Nth that sent a DATA frame"},
       {"--fault", true, "stall | stall-up | cut | dup | handshake-cut"},
       {"--after", true, "DATA frames forwarded before the fault fires"},
       {"--stall-ms", true, "partition duration for stall/stall-up in ms"},
       {"--dup-every", true, "duplicate every Kth DATA frame (fault dup)"},
       {"--max-conns", true, "exit once N connections have closed (tests)"},
       {"--help", false, "this help"},
       {"-h", false, "this help"}});
  flags.exit_on_error_or_help(
      "flaky_proxy",
      "flaky_proxy --listen PORT --to HOST:PORT [fault options]: "
      "deterministic fault-injecting TCP proxy for campaign dispatch");
  // A number must also fit the field it lands in: --listen 70000 is an
  // error, not port 4464.
  Opts o;
  o.listen_port = flags.get<std::uint16_t>("--listen", 0);
  o.port_file = flags.get_str("--port-file");
  o.latency_ms = flags.get<int>("--latency-ms", 0);
  o.conn = flags.get<int>("--conn", -1);
  o.fault = flags.get_str("--fault");
  o.after = flags.get<std::size_t>("--after", 0);
  o.stall_ms = flags.get<int>("--stall-ms", 0);
  o.dup_every = flags.get<std::size_t>("--dup-every", 0);
  o.max_conns = flags.get<int>("--max-conns", -1);
  if (!flags.has("--listen") || !flags.has("--to")) {
    std::fprintf(stderr, "flaky_proxy: --listen and --to are required\n");
    return 2;
  }
  if (!net::parse_hostport(flags.get_str("--to"), o.to_host, o.to_port)) {
    std::fprintf(stderr, "flaky_proxy: bad --to HOST:PORT\n");
    return 2;
  }
  const bool known_fault =
      o.fault.empty() || o.fault == "stall" || o.fault == "stall-up" ||
      o.fault == "cut" || o.fault == "dup" || o.fault == "handshake-cut";
  if (!known_fault) {
    std::fprintf(stderr, "flaky_proxy: unknown --fault '%s'\n",
                 o.fault.c_str());
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);

  std::uint16_t bound = 0;
  const int lfd = net::tcp_listen(o.listen_port, bound);
  if (lfd < 0) {
    std::fprintf(stderr, "flaky_proxy: cannot bind port %u\n", o.listen_port);
    return 1;
  }
  set_nonblocking(lfd);
  std::fprintf(stderr, "# flaky_proxy: %u -> %s:%u\n", bound,
               o.to_host.c_str(), o.to_port);
  if (!o.port_file.empty()) {
    if (std::FILE* f = std::fopen(o.port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", bound);
      std::fclose(f);
    }
  }

  std::list<Pair> pairs;
  std::size_t raw_counter = 0;
  long data_counter = 0;
  long closed = 0;
  const auto latency = std::chrono::milliseconds(o.latency_ms);

  auto enqueue = [&](std::deque<Chunk>& q, std::string bytes,
                     Clock::time_point not_before) {
    const auto t = std::max(Clock::now() + latency, not_before);
    q.push_back({t, std::move(bytes)});
  };

  auto on_frame = [&](Pair& p, const net::Frame& f) {
    // The link is cut: frames that shared a read with the torn one must
    // not reach the parent behind it, or they would complete it.
    if (p.cut_after_flush) return;
    if (f.type == net::FrameType::kData) {
      if (p.data_index < 0) p.data_index = data_counter++;
      ++p.data_frames;
      const bool target = o.conn >= 0 && p.data_index == o.conn;
      if (target && o.fault == "cut" && p.data_frames == o.after + 1) {
        const std::string whole = serialize(f);
        enqueue(p.to_s, whole.substr(0, whole.size() / 2), {});
        p.cut_after_flush = true;
        std::fprintf(stderr,
                     "# flaky_proxy: cutting data-conn %ld mid-frame after "
                     "%zu DATA frame(s)\n",
                     p.data_index, o.after);
        return;
      }
      if (target && (o.fault == "stall" || o.fault == "stall-up") &&
          p.data_frames == o.after + 1) {
        const auto until =
            Clock::now() + std::chrono::milliseconds(o.stall_ms);
        if (o.fault == "stall") p.stall_until = until;
        p.stall_up_until = until;
        std::fprintf(stderr,
                     "# flaky_proxy: stalling data-conn %ld (%s) for %dms "
                     "after %zu DATA frame(s)\n",
                     p.data_index,
                     o.fault == "stall" ? "both directions" : "worker->parent",
                     o.stall_ms, o.after);
      }
      enqueue(p.to_s, serialize(f), p.stall_up_until);
      if (target && o.fault == "dup" && o.dup_every > 0 &&
          p.data_frames % o.dup_every == 0) {
        enqueue(p.to_s, serialize(f), p.stall_up_until);
      }
      return;
    }
    enqueue(p.to_s, serialize(f), p.stall_up_until);
  };

  for (;;) {
    // Reap finished pairs; exit once --max-conns of them completed.
    for (auto it = pairs.begin(); it != pairs.end();) {
      Pair& p = *it;
      const bool drained = p.to_s.empty() && p.to_c.empty();
      if (p.dead || (p.c_eof && p.s_eof && drained) ||
          (p.cut_after_flush && p.to_s.empty())) {
        if (p.cfd >= 0) ::close(p.cfd);
        if (p.sfd >= 0) ::close(p.sfd);
        ++closed;
        it = pairs.erase(it);
      } else {
        ++it;
      }
    }
    if (o.max_conns >= 0 && closed >= o.max_conns && pairs.empty()) return 0;

    std::vector<pollfd> fds;
    std::vector<std::pair<Pair*, int>> who;  // (pair, 0=cfd 1=sfd)
    fds.push_back({lfd, POLLIN, 0});
    who.push_back({nullptr, 0});
    const auto now = Clock::now();
    int timeout = 200;
    auto want_flush = [&](const std::deque<Chunk>& q,
                          Clock::time_point stall) {
      if (q.empty()) return false;
      const auto at = std::max(q.front().release, stall);
      if (at <= now) return true;
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          at - now)
                          .count();
      timeout = static_cast<int>(
          std::min<long long>(timeout, std::max<long long>(1, ms)));
      return false;
    };
    for (auto& p : pairs) {
      short cev = POLLIN, sev = POLLIN;
      if (want_flush(p.to_c, p.stall_until)) cev |= POLLOUT;
      if (want_flush(p.to_s, p.stall_until)) sev |= POLLOUT;
      if (p.c_eof) cev &= ~POLLIN;
      if (p.s_eof) sev &= ~POLLIN;
      fds.push_back({p.cfd, cev, 0});
      who.push_back({&p, 0});
      fds.push_back({p.sfd, sev, 0});
      who.push_back({&p, 1});
    }
    const int pr = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout);
    if (pr < 0 && errno != EINTR) {
      std::fprintf(stderr, "flaky_proxy: poll failed: %s\n",
                   std::strerror(errno));
      return 1;
    }

    auto flush = [&](Pair& p, std::deque<Chunk>& q, int fd,
                     Clock::time_point stall) {
      const auto t = Clock::now();
      while (!q.empty() && std::max(q.front().release, stall) <= t) {
        auto& c = q.front();
        const ssize_t w = ::write(fd, c.bytes.data(), c.bytes.size());
        if (w < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            return;
          p.dead = true;
          return;
        }
        c.bytes.erase(0, static_cast<std::size_t>(w));
        if (!c.bytes.empty()) return;
        q.pop_front();
      }
    };

    for (std::size_t k = 0; k < fds.size() && pr > 0; ++k) {
      if (!who[k].first) {
        if (!(fds[k].revents & POLLIN)) continue;
        for (;;) {
          const int cfd = ::accept(lfd, nullptr, nullptr);
          if (cfd < 0) break;
          const int sfd = net::tcp_connect(o.to_host, o.to_port);
          if (sfd < 0) {
            std::fprintf(stderr,
                         "flaky_proxy: upstream %s:%u refused connection\n",
                         o.to_host.c_str(), o.to_port);
            ::close(cfd);
            continue;
          }
          set_nonblocking(cfd);
          set_nonblocking(sfd);
          int one = 1;
          ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          Pair p;
          p.cfd = cfd;
          p.sfd = sfd;
          p.raw_index = raw_counter++;
          p.await_handshake_cut = o.fault == "handshake-cut" && o.conn >= 0 &&
                                  p.raw_index ==
                                      static_cast<std::size_t>(o.conn);
          pairs.push_back(std::move(p));
        }
        continue;
      }
      Pair& p = *who[k].first;
      if (p.dead) continue;
      const bool from_worker = who[k].second == 0;
      const int fd = from_worker ? p.cfd : p.sfd;
      if (fds[k].revents & POLLOUT)
        flush(p, from_worker ? p.to_c : p.to_s, fd, p.stall_until);
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      for (;;) {
        const ssize_t rd = ::read(fd, buf, sizeof buf);
        if (rd < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          p.dead = true;
          break;
        }
        if (rd == 0) {
          (from_worker ? p.c_eof : p.s_eof) = true;
          // Half-close propagation: once one side hangs up and its
          // buffered bytes drain, the pair reaper closes both.
          if (from_worker && p.s_eof) p.dead = p.to_s.empty();
          break;
        }
        if (from_worker) {
          p.fr.feed(buf, static_cast<std::size_t>(rd));
          net::Frame f;
          while (p.fr.next(f)) on_frame(p, f);
          if (p.fr.corrupt()) {
            // A worker never sends garbage; treat as a wire we cannot
            // faithfully decode and fall back to killing the pair.
            p.dead = true;
            break;
          }
        } else {
          if (p.await_handshake_cut) {
            std::fprintf(stderr,
                         "# flaky_proxy: cutting conn %zu mid-handshake "
                         "(WELCOME dropped)\n",
                         p.raw_index);
            p.await_handshake_cut = false;
            p.dead = true;
            break;
          }
          enqueue(p.to_c, std::string(buf, static_cast<std::size_t>(rd)),
                  p.stall_until);
        }
      }
    }

    // Timed releases (stall expiry, latency) need flushes even when no
    // fd turned readable/writable this round.
    for (auto& p : pairs) {
      if (p.dead) continue;
      flush(p, p.to_s, p.sfd, p.stall_until);
      flush(p, p.to_c, p.cfd, p.stall_until);
      if ((p.c_eof || p.s_eof) && p.to_s.empty() && p.to_c.empty())
        p.dead = true;
    }
  }
}
