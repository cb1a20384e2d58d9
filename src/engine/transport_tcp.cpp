#include "engine/transport_tcp.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "util/parse.hpp"

namespace sfly::engine {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

// A numeric environment hook: nullopt when unset or empty, and a value
// `parse` refuses exits 2 with one line naming the variable.
template <typename Parse>
auto env_hook(const char* name, const char* want, Parse parse) {
  const char* e = std::getenv(name);
  decltype(parse(e)) v;
  if (!e || !*e || (v = parse(e))) return v;
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", name, want, e);
  std::exit(2);
}

// Reaps a child that is exiting (it closed its end, or was sent SIGKILL,
// or BYE and SIGTERM).  A blocking waitpid on a stopped child never
// returns, and a SIGSTOP can land at any moment of its exit, so each
// wait is preceded by a SIGCONT.  Returns the wait status.
int reap_exiting(pid_t pid) {
  int st = 0;
  for (;;) {
    ::kill(pid, SIGCONT);
    const pid_t r = ::waitpid(pid, &st, WNOHANG);
    if (r == pid || (r < 0 && errno != EINTR)) return st;
    ::poll(nullptr, 0, 5);
  }
}

}  // namespace

// --- TcpTransport (parent) --------------------------------------------------

TcpTransport::RowHook::RowHook(const char* env) {
  const auto v = env_hook(env, "SLOT:ROWS", [](std::string_view s) {
    return parse_uint_pair<std::size_t>(s, ':');
  });
  if (v) std::tie(slot, after) = *v;
}

bool TcpTransport::RowHook::due(std::size_t s, std::size_t rows) {
  if (fired || slot != s || rows < after) return false;
  fired = true;
  return true;
}

TcpTransport::TcpTransport(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.workers == 0)
    throw std::invalid_argument("--workers must be >= 1");
  // A worker can die holding a socket we are about to write; the write
  // must fail with EPIPE, not kill the parent.
  ::signal(SIGPIPE, SIG_IGN);
  if (cfg_.lease_ms < 100)
    throw std::invalid_argument("--lease-ms must be >= 100");
  heartbeat_ms_ = cfg_.lease_ms / 3;
  slot_.assign(cfg_.workers, nullptr);
  slot_rows_.assign(cfg_.workers, 0);
  if (local()) return;

  std::uint16_t port = 0;
  if (!links_.listen(static_cast<std::uint16_t>(cfg_.listen_port), port))
    throw std::runtime_error("--listen: cannot bind port " +
                             std::to_string(cfg_.listen_port));
  std::fprintf(stderr,
               "# --listen: accepting worker connections on port %u "
               "(%zu slot(s), lease %dms)\n",
               port, cfg_.workers, cfg_.lease_ms);
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::start(const Hooks& hooks) {
  if (local()) {
    for (std::size_t wi = 0; wi < slot_.size(); ++wi) spawn(wi, hooks);
    return;
  }
  const auto bound = [&] {
    return cfg_.workers - std::count(slot_.begin(), slot_.end(), nullptr);
  };
  auto last_notice = std::chrono::steady_clock::now();
  while (bound() < cfg_.workers) {
    pump(200, hooks);
    // A worker can join and refuse the first batch (stale declaration),
    // a joiner can stop on an already-spent --max-seconds budget, and
    // the parent itself can be signalled or run out of budget while we
    // are still assembling the fleet; hand control back so the
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
                               std::string_view payload) {
  c.queue(type, payload);
  // A worker that stopped reading while we keep queueing is wedged; cap
  // its unsent bytes so one zombie cannot balloon the parent.
  if (c.unsent() > net::kMaxFramePayload) c.dead = true;
}

void TcpTransport::send(std::size_t slot, const std::string& line) {
  if (Conn* c = slot_[slot]) queue_frame(*c, net::FrameType::kData, line);
}

void TcpTransport::spawn(std::size_t slot, const Hooks& hooks) {
  // Both ends close-on-exec: the child clears the flag on its own end
  // only, so no sibling's socket leaks into it (a leaked copy would keep
  // that sibling's connection open past its death).
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
    throw std::runtime_error("--workers: socketpair() failed");
  std::vector<std::string> args{cfg_.exe};
  args.insert(args.end(), cfg_.worker_argv.begin(), cfg_.worker_argv.end());
  args.push_back("--worker-fd");
  args.push_back(std::to_string(sv[1]));
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw std::runtime_error("--workers: fork() failed");
  }
  if (pid == 0) {
    // Worker process.  stdout goes to /dev/null: the parent's stdout
    // must stay byte-identical to a single-process run's, and the
    // worker would otherwise print its own banner and report.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    ::fcntl(sv[1], F_SETFD, 0);
    ::execv(cfg_.exe.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(sv[1]);
  Conn& c = links_.adopt(sv[0]);
  c.pid = pid;
  bind(c, slot, hooks);
}

void TcpTransport::bind(Conn& c, std::size_t slot, const Hooks& hooks) {
  c.slot = static_cast<long>(slot);
  c.epoch = ++epoch_counter_;
  slot_[slot] = &c;
  net::Welcome w;
  w.lease_ms = cfg_.lease_ms;
  w.heartbeat_ms = heartbeat_ms_;
  if (cfg_.max_seconds > 0.0)
    w.budget_seconds = std::max(0.001, cfg_.max_seconds -
                                           seconds_since(cfg_.start));
  queue_frame(c, net::FrameType::kWelcome, net::welcome_payload(w));
  if (hooks.on_join) hooks.on_join(slot);
}

void TcpTransport::bind_join(Conn& c, const Hooks& hooks) {
  const auto free_slot = std::find(slot_.begin(), slot_.end(), nullptr);
  if (free_slot == slot_.end()) {
    net::Welcome w;
    w.busy = true;
    queue_frame(c, net::FrameType::kWelcome, net::welcome_payload(w));
    c.close_when_flushed = true;
    return;
  }
  const auto wi = static_cast<std::size_t>(free_slot - slot_.begin());
  bind(c, wi, hooks);
  std::fprintf(stderr, "# --listen: worker joined slot %zu (epoch %llu)\n",
               wi, static_cast<unsigned long long>(c.epoch));
}

void TcpTransport::handle_frame(Conn& c, const net::Frame& f,
                                const std::string& refusal,
                                const Hooks& hooks) {
  c.last_heard = std::chrono::steady_clock::now();
  if (!refusal.empty()) {  // the set closes it, unanswered
    std::fprintf(stderr, "# --listen: rejecting connection: %s\n",
                 refusal.c_str());
    return;
  }
  switch (f.type) {
    case net::FrameType::kHello:
      if (c.role == "probe") {
        // A sfly_worker supervisor asking what to exec on its machine.
        net::Welcome w;
        std::error_code ec;
        const auto real = std::filesystem::canonical(cfg_.exe, ec);
        w.exe = (ec ? std::filesystem::path(cfg_.exe) : real)
                    .filename()
                    .string();
        w.args = cfg_.worker_argv;
        queue_frame(c, net::FrameType::kWelcome, net::welcome_payload(w));
        c.close_when_flushed = true;
      } else if (c.slot < 0) {
        // Local children are bound at spawn; joins bind on their HELLO.
        bind_join(c, hooks);
      }
      return;
    case net::FrameType::kData: {
      if (c.slot < 0) {  // never bound to a slot: no rows to give
        c.dead = true;
        return;
      }
      if (f.seq <= c.last_seq_in) {
        // A duplicated frame (misbehaving middlebox, fault injection):
        // the sequence number drops it before any line reaches the row
        // path.
        return;
      }
      c.last_seq_in = f.seq;
      const auto wi = static_cast<std::size_t>(c.slot);
      if (!current(c)) {
        if (hooks.on_zombie_line) hooks.on_zombie_line(wi, f.payload);
      } else if (hooks.on_line) {
        hooks.on_line(wi, f.payload);
      }
      return;
    }
    case net::FrameType::kStop:
      c.said_stop = true;
      return;
    default:
      return;  // a heartbeat only refreshes last_heard
  }
}

void TcpTransport::sweep(const Hooks& hooks) {
  links_.sweep([&](Conn& c) {
    if (c.frames.corrupt())
      std::fprintf(stderr,
                   "# --listen: corrupt frame stream from slot %ld — "
                   "treating the connection as dead\n",
                   c.slot);
    bool graceful = c.said_stop;
    if (c.pid > 0) {
      // A child that closed its end is exiting: reap it as it is.  One
      // we gave up on (write failure, corrupt stream, expired lease —
      // possibly SIGSTOPped) is SIGKILLed first.
      if (!c.hup) ::kill(c.pid, SIGKILL);
      const int st = reap_exiting(c.pid);
      // EX_TEMPFAIL: the worker's own --max-seconds budget fired.
      graceful = graceful || (WIFEXITED(st) && WEXITSTATUS(st) == 75);
    }
    if (current(c)) {
      slot_[static_cast<std::size_t>(c.slot)] = nullptr;
      if (hooks.on_down)
        hooks.on_down(static_cast<std::size_t>(c.slot), graceful);
    }
  });
}

void TcpTransport::pump(int timeout_ms, const Hooks& hooks) {
  sweep(hooks);  // reap conns killed by send() since the last pump
  if (!links_.poll(timeout_ms,
                   [&](Conn& c, const net::Frame& f, const std::string& why) {
                     handle_frame(c, f, why, hooks);
                   }))
    throw std::runtime_error("--workers: poll() failed");

  // Keep-alives: the worker's lease logic mirrors ours, so a silent
  // parent would look like a partition.  Zombies get none — a fenced
  // worker should time out, exit 76, and reconnect for a fresh slice.
  for (auto& [id, c] : links_.conns()) {
    if (c.dead || !current(c)) continue;
    if (seconds_since(c.last_hb_sent) * 1000.0 >= heartbeat_ms_) {
      c.last_hb_sent = std::chrono::steady_clock::now();
      queue_frame(c, net::FrameType::kHeartbeat, "");
    }
  }
  sweep(hooks);
}

void TcpTransport::replace(std::size_t slot, const Hooks& hooks) {
  // Fence the slot's current conn, if any (it is a zombie from here
  // on).  A --listen slot then waits for the next --connect join —
  // routed through bind_join/on_join — to take over; a local worker is
  // killed by the next sweep and respawned now.
  if (Conn* c = slot_[slot]; c && local()) c->dead = true;
  slot_[slot] = nullptr;
  if (!local()) return;
  if (++respawns_ > cfg_.max_respawns) {
    shutdown();
    throw std::runtime_error(
        "--workers: worker died " + std::to_string(respawns_ - 1) +
        " times (crash loop?) — giving up; the journal prefix on disk "
        "is resumable single-process with --resume");
  }
  spawn(slot, hooks);
}

void TcpTransport::note_row(std::size_t slot) {
  const std::size_t rows = ++slot_rows_[slot];
  if (kill_hook_.due(slot, rows) && slot_[slot] && slot_[slot]->pid > 0)
    ::kill(slot_[slot]->pid, SIGKILL);  // deterministic worker death
  if (fence_hook_.due(slot, rows)) {
    std::fprintf(stderr,
                 "# --workers: test fence firing on slot %zu after %zu "
                 "row(s)\n",
                 slot, rows);
    slot_[slot] = nullptr;  // its conn is a zombie from here on
  }
}

void TcpTransport::shutdown() {
  links_.close_listener();
  // BYE tells each worker the fleet is done: its next EOF is graceful
  // (exit 75), not a lost link to reconnect across.
  auto& conns = links_.conns();
  for (auto& [id, c] : conns)
    if (current(c)) queue_frame(c, net::FrameType::kBye, "");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    bool pending = false;
    for (auto& [id, c] : conns) {
      if (!c.dead) c.flush();
      pending = pending || (!c.dead && c.unsent() > 0);
    }
    if (!pending || std::chrono::steady_clock::now() > deadline) break;
    ::poll(nullptr, 0, 10);
  }
  for (auto& [id, c] : conns) c.dead = true;
  links_.sweep([](Conn& c) {
    if (c.pid <= 0) return;
    // A local worker blocked on its next header reads BYE + EOF and
    // exits 75; one mid-evaluation gets SIGTERM (and SIGCONT, in case
    // it is stopped) so teardown does not wait out a long scenario
    // whose output nobody will read.
    ::kill(c.pid, SIGTERM);
    (void)reap_exiting(c.pid);
  });
  for (auto& s : slot_) s = nullptr;
}

// --- SocketChannel (worker) -------------------------------------------------

bool SocketChannel::handshake(int fd) {
  net::Frame f;
  // Handshake reads feed the member reader: the parent's first DATA
  // frames (history, header, slice) can share a read() with the
  // WELCOME, and those buffered bytes must survive into read_line().
  frames_ = net::FrameReader{};
  net::Welcome w;
  if (!net::send_frame(fd, net::FrameType::kHello, 1,
                       net::hello_payload("worker")) ||
      !net::read_frame_blocking(fd, f, frames_, 10000) ||
      f.type != net::FrameType::kWelcome || !net::parse_welcome(f.payload, w) ||
      w.version != net::kProtocolVersion || w.busy)
    return false;
  fd_ = fd;
  if (w.lease_ms > 0) lease_ms_ = w.lease_ms;
  heartbeat_ms_ = w.heartbeat_ms > 0 ? w.heartbeat_ms : lease_ms_ / 3;
  budget_s_ = w.budget_seconds;
  return true;
}

SocketChannel::SocketChannel(const Config& cfg) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::uint64_t attempts =
      env_hook("SFLY_CONNECT_ATTEMPTS", "a non-negative integer", parse_u64)
          .value_or(cfg.attempts);
  const std::uint64_t base_ms =
      env_hook("SFLY_CONNECT_BASE_MS", "a non-negative integer", parse_u64)
          .value_or(cfg.backoff_base_ms);
  const auto seed = static_cast<std::uint64_t>(::getpid());

  for (std::size_t k = 0;; ++k) {
    const int fd = net::tcp_connect(cfg.host, cfg.port);
    // busy (all slots taken) or version skew: back off and retry — a
    // fenced slot frees up as soon as the parent notices.
    if (fd >= 0 && handshake(fd)) break;
    if (fd >= 0) ::close(fd);
    if (k + 1 >= attempts)
      throw std::runtime_error("--connect: no worker slot at " + cfg.host +
                               ":" + std::to_string(cfg.port) + " after " +
                               std::to_string(attempts) + " attempts");
    const auto delay =
        net::backoff_delay_ms(k, base_ms, cfg.backoff_max_ms, seed);
    ::poll(nullptr, 0, static_cast<int>(delay));
  }
  begin();
}

SocketChannel::SocketChannel(int fd) {
  ::signal(SIGPIPE, SIG_IGN);
  if (!handshake(fd)) {
    ::close(fd);
    throw std::runtime_error("--worker-fd: no WELCOME from the --workers "
                             "parent on fd " + std::to_string(fd));
  }
  begin();
}

void SocketChannel::begin() {
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
      if (!net::send_frame(fd_, net::FrameType::kHeartbeat, 0, ""))
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
      ready_.push_back(f.payload);
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
  // Silence counts only while we wait: time spent evaluating, or
  // expanding the next phase (which the parent is doing too), is not
  // the parent's silence.
  const auto waiting_since = std::chrono::steady_clock::now();
  auto silent_s = [&] {
    return std::min(seconds_since(last_parent_), seconds_since(waiting_since));
  };
  for (;;) {
    if (!ready_.empty()) {
      line = std::move(ready_.front());
      ready_.pop_front();
      return true;
    }
    if (ended_ || bye_ || lost_.load(std::memory_order_relaxed)) return false;

    // The parent heartbeats every lease/3; silence for two full leases
    // means the link (or the parent) is gone.
    const double idle = silent_s();
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
      // At EOF (or a socket error) what already arrived is drained, then
      // the end is classified via bye_.
      if (net::read_some(fd_, frames_, ended_)) {
        net::Frame f;
        while (frames_.next(f)) process_frame(f);
        if (frames_.corrupt()) lost_.store(true, std::memory_order_relaxed);
      }
      continue;
    }
    if (silent_s() >= deadline_s) lost_.store(true, std::memory_order_relaxed);
  }
}

void SocketChannel::write_line(std::string_view line) {
  std::lock_guard<std::mutex> lk(write_mu_);
  if (!net::send_frame(fd_, net::FrameType::kData, next_seq_out_++, line))
    lost_.store(true, std::memory_order_relaxed);
}

void SocketChannel::announce_stop() {
  std::lock_guard<std::mutex> lk(write_mu_);
  (void)net::send_frame(fd_, net::FrameType::kStop, 0, "");
}

}  // namespace sfly::engine
