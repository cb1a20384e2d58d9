#include "engine/transport_tcp.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace sfly::engine {

namespace {

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

// --- TcpTransport (parent) --------------------------------------------------

TcpTransport::TcpTransport(Config cfg) : cfg_(std::move(cfg)) {
  ::signal(SIGPIPE, SIG_IGN);
  if (cfg_.lease_ms < 100)
    throw std::invalid_argument("--lease-ms must be >= 100");
  heartbeat_ms_ = cfg_.lease_ms / 3;
  slot_.assign(cfg_.workers, nullptr);
  slot_rows_.assign(cfg_.workers, 0);
  listen_fd_ = net::tcp_listen(cfg_.port, port_);
  if (listen_fd_ < 0)
    throw std::runtime_error("--listen: cannot bind port " +
                             std::to_string(cfg_.port));
  set_nonblocking(listen_fd_);
  std::fprintf(stderr,
               "# --listen: accepting worker connections on port %u "
               "(%zu slot(s), lease %dms)\n",
               port_, cfg_.workers, cfg_.lease_ms);
  // Scripting hook: tests and wrappers that pass --listen 0 need the
  // actual port; the notice above is for humans.
  if (const char* pf = std::getenv("SFLY_LISTEN_PORT_FILE"); pf && *pf) {
    if (std::FILE* f = std::fopen(pf, "w")) {
      std::fprintf(f, "%u\n", port_);
      std::fclose(f);
    }
  }
  if (const char* spec = std::getenv("SFLY_TCP_TEST_FENCE")) {
    long s = -1;
    unsigned long k = 0;
    if (std::sscanf(spec, "%ld:%lu", &s, &k) == 2) {
      fence_slot_ = s;
      fence_after_rows_ = static_cast<std::size_t>(k);
    }
  }
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::start(const Hooks& hooks) {
  auto bound = [&] {
    std::size_t k = 0;
    for (const auto* c : slot_) k += (c != nullptr);
    return k;
  };
  auto last_notice = std::chrono::steady_clock::now();
  while (bound() < cfg_.workers) {
    pump(200, hooks);
    // A worker can join and refuse the first batch (stale declaration),
    // or join and stop on an already-spent --max-seconds budget, while
    // we are still assembling the fleet; hand control back so the
    // dispatcher raises the error or ends the batch on its delivered
    // prefix instead of waiting for a fleet that will never be whole.
    if (hooks.stop_waiting && hooks.stop_waiting()) return;
    if (seconds_since(last_notice) > 5.0) {
      last_notice = std::chrono::steady_clock::now();
      std::fprintf(stderr, "# --listen: %zu/%zu worker(s) connected...\n",
                   bound(), cfg_.workers);
    }
  }
}

bool TcpTransport::up(std::size_t slot) const {
  return slot_[slot] != nullptr && !slot_[slot]->dead;
}

double TcpTransport::idle_seconds(std::size_t slot) const {
  return slot_[slot] ? seconds_since(slot_[slot]->last_heard) : 0.0;
}

void TcpTransport::queue_frame(Conn& c, net::FrameType type,
                               const std::string& payload) {
  if (c.fd < 0 || c.dead) return;
  std::string buf;
  buf.reserve(net::kFrameHeaderBytes + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t seq = c.next_seq_out++;
  buf.push_back(static_cast<char>((len >> 24) & 0xff));
  buf.push_back(static_cast<char>((len >> 16) & 0xff));
  buf.push_back(static_cast<char>((len >> 8) & 0xff));
  buf.push_back(static_cast<char>(len & 0xff));
  buf.push_back(static_cast<char>(type));
  buf.push_back(static_cast<char>((seq >> 24) & 0xff));
  buf.push_back(static_cast<char>((seq >> 16) & 0xff));
  buf.push_back(static_cast<char>((seq >> 8) & 0xff));
  buf.push_back(static_cast<char>(seq & 0xff));
  buf += payload;
  c.outbox += buf;
  try_flush(c);
  // A peer that stopped reading while we keep queueing is wedged; cap
  // the buffered bytes so one zombie cannot balloon the parent.
  if (c.outbox.size() > net::kMaxFramePayload) c.dead = true;
}

void TcpTransport::try_flush(Conn& c) {
  while (!c.outbox.empty()) {
    const ssize_t w = ::write(c.fd, c.outbox.data(), c.outbox.size());
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      c.dead = true;
      return;
    }
    c.outbox.erase(0, static_cast<std::size_t>(w));
  }
}

void TcpTransport::send(std::size_t slot, const std::string& bytes) {
  if (Conn* c = slot_[slot]) queue_frame(*c, net::FrameType::kData, bytes);
}

void TcpTransport::accept_new() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Conn c;
    c.fd = fd;
    c.last_heard = c.last_hb_sent = std::chrono::steady_clock::now();
    conns_.push_back(std::move(c));
  }
}

void TcpTransport::bind_worker(Conn& c, const Hooks& hooks) {
  long free_slot = -1;
  for (std::size_t wi = 0; wi < slot_.size(); ++wi) {
    if (!slot_[wi]) {
      free_slot = static_cast<long>(wi);
      break;
    }
  }
  net::Welcome w;
  if (free_slot < 0) {
    w.busy = true;
    queue_frame(c, net::FrameType::kWelcome, net::welcome_payload(w));
    c.close_when_flushed = true;
    return;
  }
  c.slot = free_slot;
  c.epoch = ++epoch_counter_;
  slot_[static_cast<std::size_t>(free_slot)] = &c;
  w.lease_ms = cfg_.lease_ms;
  w.heartbeat_ms = heartbeat_ms_;
  if (cfg_.max_seconds > 0.0)
    w.budget_seconds = std::max(0.001, cfg_.max_seconds -
                                           seconds_since(cfg_.start));
  queue_frame(c, net::FrameType::kWelcome, net::welcome_payload(w));
  std::fprintf(stderr, "# --listen: worker joined slot %ld (epoch %llu)\n",
               free_slot, static_cast<unsigned long long>(c.epoch));
  if (hooks.on_join) hooks.on_join(static_cast<std::size_t>(free_slot));
}

void TcpTransport::handle_frame(Conn& c, const net::Frame& f,
                                const Hooks& hooks) {
  c.last_heard = std::chrono::steady_clock::now();
  switch (f.type) {
    case net::FrameType::kHello: {
      int version = 0;
      std::string role;
      if (!net::parse_hello(f.payload, version, role) ||
          version != net::kProtocolVersion) {
        std::fprintf(stderr,
                     "# --listen: rejecting connection with protocol "
                     "version %d (this parent speaks %d)\n",
                     version, net::kProtocolVersion);
        c.dead = true;
        return;
      }
      if (role == "probe") {
        // A sfly_worker supervisor asking what to exec on its machine.
        net::Welcome w;
        w.exe = cfg_.exe;
        w.args = cfg_.worker_argv;
        queue_frame(c, net::FrameType::kWelcome, net::welcome_payload(w));
        c.close_when_flushed = true;
        return;
      }
      if (c.slot < 0 && !c.zombie) bind_worker(c, hooks);
      return;
    }
    case net::FrameType::kData: {
      if (c.slot < 0) {  // data before a successful hello: not ours
        c.dead = true;
        return;
      }
      if (f.seq <= c.last_seq_in) {
        // A duplicated frame (misbehaving middlebox, fault injection):
        // the sequence number catches it before any line reaches the
        // row path.
        ++dup_frames_;
        return;
      }
      c.last_seq_in = f.seq;
      const auto wi = static_cast<std::size_t>(c.slot);
      c.lines.feed(f.payload.data(), f.payload.size(),
                   [&](std::string line) {
                     if (c.zombie || slot_[wi] != &c) {
                       if (hooks.on_zombie_line) hooks.on_zombie_line(wi, line);
                     } else if (hooks.on_line) {
                       hooks.on_line(wi, line);
                     }
                   });
      return;
    }
    case net::FrameType::kHeartbeat:
      return;  // last_heard already refreshed
    case net::FrameType::kStop:
      c.said_stop = true;
      return;
    default:
      return;
  }
}

void TcpTransport::read_conn(Conn& c, const Hooks& hooks) {
  char buf[65536];
  for (;;) {
    const ssize_t rd = ::read(c.fd, buf, sizeof buf);
    if (rd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      c.dead = true;
      break;
    }
    if (rd == 0) {  // EOF; a torn frame in c.frames is simply dropped
      c.dead = true;
      break;
    }
    c.frames.feed(buf, static_cast<std::size_t>(rd));
    net::Frame f;
    while (c.frames.next(f)) handle_frame(c, f, hooks);
    if (c.frames.corrupt()) {
      std::fprintf(stderr,
                   "# --listen: corrupt frame stream from slot %ld — "
                   "treating the connection as dead\n",
                   c.slot);
      c.dead = true;
      break;
    }
  }
}

void TcpTransport::sweep(const Hooks& hooks) {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& c = *it;
    if (!c.dead && c.close_when_flushed && c.outbox.empty()) c.dead = true;
    if (!c.dead) {
      ++it;
      continue;
    }
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    const bool current =
        c.slot >= 0 && slot_[static_cast<std::size_t>(c.slot)] == &c;
    if (current) {
      slot_[static_cast<std::size_t>(c.slot)] = nullptr;
      if (hooks.on_down)
        hooks.on_down(static_cast<std::size_t>(c.slot), c.said_stop);
    }
    it = conns_.erase(it);
  }
}

void TcpTransport::pump(int timeout_ms, const Hooks& hooks) {
  sweep(hooks);  // reap conns killed by send() since the last pump

  std::vector<pollfd> fds;
  std::vector<Conn*> who;
  if (listen_fd_ >= 0) {
    fds.push_back({listen_fd_, POLLIN, 0});
    who.push_back(nullptr);
  }
  for (auto& c : conns_) {
    short ev = POLLIN;
    if (!c.outbox.empty()) ev |= POLLOUT;
    fds.push_back({c.fd, ev, 0});
    who.push_back(&c);
  }
  const int pr =
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
  if (pr < 0 && errno != EINTR)
    throw std::runtime_error("--listen: poll() failed");
  if (pr > 0) {
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (!who[k]) {
        if (fds[k].revents & POLLIN) accept_new();
        continue;
      }
      Conn& c = *who[k];
      if (c.dead) continue;
      if (fds[k].revents & POLLOUT) try_flush(c);
      if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(c, hooks);
    }
  }

  // Keep-alives: the worker's lease logic mirrors ours, so a silent
  // parent would look like a partition.  Zombies get none — a fenced
  // worker should time out, exit 76, and reconnect for a fresh slice.
  for (auto& c : conns_) {
    if (c.dead || c.slot < 0 || c.zombie) continue;
    if (slot_[static_cast<std::size_t>(c.slot)] != &c) continue;
    if (seconds_since(c.last_hb_sent) * 1000.0 >= heartbeat_ms_) {
      c.last_hb_sent = std::chrono::steady_clock::now();
      queue_frame(c, net::FrameType::kHeartbeat, "");
    }
  }
  sweep(hooks);
}

void TcpTransport::fence(std::size_t slot) {
  Conn* c = slot_[slot];
  if (!c) return;
  c->zombie = true;
  slot_[slot] = nullptr;
}

void TcpTransport::replace(std::size_t slot, const Hooks&) {
  // Passive: fence the current epoch (if any) and let the next
  // --connect join — routed through bind_worker/on_join — take over.
  fence(slot);
}

void TcpTransport::note_row(std::size_t slot) {
  ++slot_rows_[slot];
  if (!fence_fired_ && fence_slot_ >= 0 &&
      static_cast<std::size_t>(fence_slot_) == slot &&
      slot_rows_[slot] >= fence_after_rows_) {
    fence_fired_ = true;  // test hook: deterministic zombie-epoch fencing
    std::fprintf(stderr,
                 "# --listen: test fence firing on slot %zu after %zu "
                 "row(s)\n",
                 slot, slot_rows_[slot]);
    fence(slot);
  }
}

void TcpTransport::shutdown() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // BYE tells each worker the fleet is done: its next EOF is graceful
  // (exit 75), not a lost link to reconnect across.
  for (auto& c : conns_) {
    if (c.fd < 0 || c.dead) continue;
    if (c.slot >= 0 && !c.zombie &&
        slot_[static_cast<std::size_t>(c.slot)] == &c)
      queue_frame(c, net::FrameType::kBye, "");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    bool pending = false;
    for (auto& c : conns_) {
      if (c.fd < 0 || c.dead) continue;
      try_flush(c);
      if (!c.outbox.empty()) pending = true;
    }
    if (!pending || std::chrono::steady_clock::now() > deadline) break;
    ::poll(nullptr, 0, 10);
  }
  for (auto& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
  conns_.clear();
  for (auto& s : slot_) s = nullptr;
}

// --- SocketChannel (worker) -------------------------------------------------

SocketChannel::SocketChannel(const Config& cfg) {
  ::signal(SIGPIPE, SIG_IGN);
  std::size_t attempts = cfg.attempts;
  std::uint64_t base_ms = cfg.backoff_base_ms;
  if (const char* e = std::getenv("SFLY_CONNECT_ATTEMPTS"); e && *e)
    attempts = static_cast<std::size_t>(std::strtoul(e, nullptr, 10));
  if (const char* e = std::getenv("SFLY_CONNECT_BASE_MS"); e && *e)
    base_ms = std::strtoull(e, nullptr, 10);
  const auto seed = static_cast<std::uint64_t>(::getpid());

  for (std::size_t k = 0;; ++k) {
    const int fd = net::tcp_connect(cfg.host, cfg.port);
    if (fd >= 0) {
      bool ok = net::send_frame(fd, net::FrameType::kHello, 1,
                                net::hello_payload("worker"));
      net::Frame f;
      // Handshake reads feed the member reader: the parent's first DATA
      // frame (slice assignment) can share a read() with the WELCOME,
      // and those buffered bytes must survive into read_line().
      frames_ = net::FrameReader{};
      if (ok && net::read_frame_blocking(fd, f, frames_, 10000) &&
          f.type == net::FrameType::kWelcome) {
        net::Welcome w;
        if (net::parse_welcome(f.payload, w) &&
            w.version == net::kProtocolVersion && !w.busy) {
          fd_ = fd;
          if (w.lease_ms > 0) lease_ms_ = w.lease_ms;
          heartbeat_ms_ =
              w.heartbeat_ms > 0 ? w.heartbeat_ms : lease_ms_ / 3;
          budget_s_ = w.budget_seconds;
          break;
        }
        // busy (all slots taken) or version skew: back off and retry —
        // a fenced slot frees up as soon as the parent notices.
      }
      ::close(fd);
    }
    if (k + 1 >= attempts)
      throw std::runtime_error("--connect: no worker slot at " + cfg.host +
                               ":" + std::to_string(cfg.port) + " after " +
                               std::to_string(attempts) + " attempts");
    const auto delay =
        net::backoff_delay_ms(k, base_ms, cfg.backoff_max_ms, seed);
    ::poll(nullptr, 0, static_cast<int>(delay));
  }

  // A wedged parent must not block us forever in write(): bound sends by
  // two leases, after which the link counts as lost (exit 76).
  timeval tv{};
  tv.tv_sec = (2 * lease_ms_) / 1000;
  tv.tv_usec = ((2 * lease_ms_) % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  last_parent_ = std::chrono::steady_clock::now();

  // Frames that rode in with the WELCOME are already complete in the
  // reader; surface them now rather than waiting for the next read().
  net::Frame pre;
  while (frames_.next(pre)) process_frame(pre);

  // Heartbeats come from their own thread so leases survive arbitrarily
  // long scenario evaluations.
  hb_thread_ = std::thread([this] {
    auto last = std::chrono::steady_clock::now();
    while (!stop_hb_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (seconds_since(last) * 1000.0 < heartbeat_ms_) continue;
      last = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lk(write_mu_);
      if (fd_ >= 0 &&
          !net::send_frame(fd_, net::FrameType::kHeartbeat, 0, ""))
        lost_.store(true, std::memory_order_relaxed);
    }
  });
}

SocketChannel::~SocketChannel() {
  stop_hb_.store(true, std::memory_order_relaxed);
  if (hb_thread_.joinable()) hb_thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

void SocketChannel::process_frame(const net::Frame& f) {
  last_parent_ = std::chrono::steady_clock::now();
  switch (f.type) {
    case net::FrameType::kData:
      if (f.seq <= last_seq_in_) return;  // duplicate frame: drop
      last_seq_in_ = f.seq;
      lines_.feed(f.payload.data(), f.payload.size(),
                  [&](std::string line) { ready_.push_back(std::move(line)); });
      return;
    case net::FrameType::kBye:
      bye_ = true;
      return;
    case net::FrameType::kHeartbeat:
    default:
      return;
  }
}

bool SocketChannel::read_line(std::string& line) {
  for (;;) {
    if (!ready_.empty()) {
      line = std::move(ready_.front());
      ready_.pop_front();
      return true;
    }
    if (ended_ || bye_ || lost_.load(std::memory_order_relaxed)) return false;

    // The parent heartbeats every lease/3; silence for two full leases
    // means the link (or the parent) is gone.
    const double idle = seconds_since(last_parent_);
    const double deadline_s = 2.0 * lease_ms_ / 1000.0;
    pollfd p{fd_, POLLIN, 0};
    const int wait_ms = idle >= deadline_s
                            ? 0
                            : static_cast<int>(std::min(
                                  500.0, (deadline_s - idle) * 1000.0) +
                              1);
    const int pr = ::poll(&p, 1, wait_ms);
    if (pr < 0 && errno != EINTR) {
      lost_.store(true, std::memory_order_relaxed);
      continue;
    }
    if (pr > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR))) {
      char buf[65536];
      const ssize_t rd = ::read(fd_, buf, sizeof buf);
      if (rd < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        lost_.store(true, std::memory_order_relaxed);
        continue;
      }
      if (rd == 0) {
        // EOF: drain what already arrived, then classify via bye_.
        ended_ = true;
        continue;
      }
      frames_.feed(buf, static_cast<std::size_t>(rd));
      net::Frame f;
      while (frames_.next(f)) process_frame(f);
      if (frames_.corrupt()) lost_.store(true, std::memory_order_relaxed);
      continue;
    }
    if (seconds_since(last_parent_) >= deadline_s)
      lost_.store(true, std::memory_order_relaxed);
  }
}

void SocketChannel::write_line(const std::string& bytes) {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (fd_ < 0) return;
  if (!net::send_frame(fd_, net::FrameType::kData, next_seq_out_++, bytes))
    lost_.store(true, std::memory_order_relaxed);
}

void SocketChannel::announce_stop() {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (fd_ >= 0) (void)net::send_frame(fd_, net::FrameType::kStop, 0, "");
}

}  // namespace sfly::engine
