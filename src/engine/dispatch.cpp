#include "engine/dispatch.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "engine/journal.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace sfly::engine {

namespace dispatch_detail {

std::optional<std::size_t> row_index(const std::string& line) {
  static constexpr char kPrefix[] = "{\"index\":";
  static constexpr std::size_t kLen = sizeof(kPrefix) - 1;
  if (line.rfind(kPrefix, 0) != 0) return std::nullopt;
  const char* p = line.c_str() + kLen;
  if (*p < '0' || *p > '9') return std::nullopt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(p, &end, 10);
  if (end == p) return std::nullopt;
  return static_cast<std::size_t>(v);
}

}  // namespace dispatch_detail

namespace {

// Write the full buffer, retrying on EINTR.  A failed write (EPIPE: the
// receiver died) clears `ok` instead of throwing — the death surfaces as
// EOF on the worker's result pipe, where the dispatcher handles it.
void write_all(int fd, const char* data, std::size_t n, bool& ok) {
  while (ok && n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ok = false;
      return;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

std::string slice_line(std::size_t lo, std::size_t hi) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"slice\":[%zu,%zu]}\n", lo, hi);
  return buf;
}

bool parse_slice(const std::string& line, std::size_t& lo, std::size_t& hi) {
  JsonObject j;
  std::vector<std::uint64_t> slice;
  if (!JsonObject::scan(line, j) || !j.get_u64_array("slice", slice) ||
      slice.size() != 2)
    return false;
  lo = static_cast<std::size_t>(slice[0]);
  hi = static_cast<std::size_t>(slice[1]);
  return true;
}

// --- PipeTransport ---------------------------------------------------------
// Plain `--workers N`: fork+exec N copies of the bench binary on this
// machine, a pipe pair per slot.  A pipe cannot stall silently (the
// kernel EOFs it the instant the process dies), so leases are off and
// replace() respawns synchronously.

class PipeTransport final : public Transport {
 public:
  struct Config {
    std::size_t workers = 2;
    std::string exe;
    std::vector<std::string> worker_argv;
    double max_seconds = 0.0;
    std::chrono::steady_clock::time_point start;
    std::size_t max_respawns = 8;
  };

  explicit PipeTransport(Config cfg) : cfg_(std::move(cfg)) {
    slots_.resize(cfg_.workers);
    if (const char* spec = std::getenv("SFLY_DISPATCH_TEST_KILL")) {
      long w = -1;
      unsigned long k = 0;
      if (std::sscanf(spec, "%ld:%lu", &w, &k) == 2) {
        kill_slot_ = w;
        kill_after_rows_ = static_cast<std::size_t>(k);
      }
    }
  }
  ~PipeTransport() override { shutdown(); }

  [[nodiscard]] std::size_t width() const override { return slots_.size(); }
  [[nodiscard]] const char* tag() const override { return "--workers"; }

  void start(const Hooks& hooks) override {
    for (std::size_t wi = 0; wi < slots_.size(); ++wi) {
      spawn(slots_[wi]);
      hooks.on_join(wi);
    }
  }

  [[nodiscard]] bool up(std::size_t slot) const override {
    return slots_[slot].alive;
  }

  void send(std::size_t slot, const std::string& bytes) override {
    auto& w = slots_[slot];
    bool ok = w.alive && w.ctrl_fd >= 0;
    write_all(w.ctrl_fd, bytes.data(), bytes.size(), ok);
    // A failure here is a death in progress; the result-pipe EOF path
    // classifies and handles it.
  }

  void pump(int timeout_ms, const Hooks& hooks) override {
    std::vector<pollfd> fds;
    std::vector<std::size_t> who;
    for (std::size_t wi = 0; wi < slots_.size(); ++wi) {
      if (!slots_[wi].alive) continue;
      fds.push_back({slots_[wi].out_fd, POLLIN, 0});
      who.push_back(wi);
    }
    if (fds.empty()) return;
    const int pr =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) return;
      shutdown();
      throw std::runtime_error("--workers: poll() failed");
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const std::size_t wi = who[k];
      Worker& w = slots_[wi];
      char buf[65536];
      const ssize_t rd = ::read(w.out_fd, buf, sizeof buf);
      if (rd < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        reap(wi, hooks);
        continue;
      }
      if (rd == 0) {
        // EOF: the complete lines received stand; the half-written tail
        // in w.buf.pending() is dropped — exactly --resume truncation.
        reap(wi, hooks);
        continue;
      }
      w.buf.feed(buf, static_cast<std::size_t>(rd),
                 [&](std::string line) { hooks.on_line(wi, line); });
    }
  }

  void replace(std::size_t slot, const Hooks& hooks) override {
    auto& w = slots_[slot];
    if (w.alive) return;  // pipes only replace the dead
    if (++respawns_ > cfg_.max_respawns) {
      shutdown();
      throw std::runtime_error(
          "--workers: worker died " + std::to_string(respawns_ - 1) +
          " times (crash loop?) — giving up; the journal prefix on disk "
          "is resumable single-process with --resume");
    }
    spawn(w);
    hooks.on_join(slot);
  }

  void note_row(std::size_t slot) override {
    auto& w = slots_[slot];
    ++w.rows_received;
    if (!kill_fired_ && kill_slot_ >= 0 &&
        static_cast<std::size_t>(kill_slot_) == slot &&
        w.rows_received >= kill_after_rows_) {
      kill_fired_ = true;  // test hook: deterministic worker death
      ::kill(w.pid, SIGKILL);
    }
  }

  void shutdown() override {
    // Closing the control pipe is the fleet-stop signal: a worker blocked
    // on its next header reads EOF and exits 75.  Workers mid-evaluation
    // get SIGTERM so teardown does not wait out a long scenario whose
    // output nobody will read.
    for (auto& w : slots_) {
      if (w.ctrl_fd >= 0) ::close(w.ctrl_fd);
      if (w.out_fd >= 0) ::close(w.out_fd);
      w.ctrl_fd = w.out_fd = -1;
    }
    for (auto& w : slots_) {
      if (w.pid <= 0) continue;
      ::kill(w.pid, SIGTERM);
      int st = 0;
      ::waitpid(w.pid, &st, 0);
      w.pid = -1;
      w.alive = false;
    }
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int ctrl_fd = -1;  ///< parent -> worker: headers, slices, broadcasts
    int out_fd = -1;   ///< worker -> parent: jsonl_row lines
    dispatch_detail::LineBuffer buf;
    std::size_t rows_received = 0;  ///< lifetime rows (kill-test hook)
    bool alive = false;
  };

  void spawn(Worker& w) {
    int ctrl[2] = {-1, -1}, outp[2] = {-1, -1};
    if (::pipe(ctrl) != 0 || ::pipe(outp) != 0) {
      for (int fd : {ctrl[0], ctrl[1], outp[0], outp[1]})
        if (fd >= 0) ::close(fd);
      throw std::runtime_error("--workers: pipe() failed");
    }
    // A respawned worker gets the budget REMAINING now, so worker deaths
    // never reset the fleet's wall clock.
    std::string budget;
    if (cfg_.max_seconds > 0.0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        cfg_.start)
              .count();
      char b[32];
      std::snprintf(b, sizeof b, "%.3f",
                    std::max(0.001, cfg_.max_seconds - elapsed));
      budget = b;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (int fd : {ctrl[0], ctrl[1], outp[0], outp[1]}) ::close(fd);
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
      ::close(ctrl[1]);
      ::close(outp[0]);
      // Sibling pipe ends must not leak into this child, or a sibling's
      // death would never EOF its pipes.
      for (const auto& o : slots_) {
        if (o.ctrl_fd >= 0) ::close(o.ctrl_fd);
        if (o.out_fd >= 0) ::close(o.out_fd);
      }
      std::vector<std::string> args;
      args.push_back(cfg_.exe);
      for (const auto& a : cfg_.worker_argv) args.push_back(a);
      args.push_back("--worker-fd");
      args.push_back(std::to_string(ctrl[0]) + "," + std::to_string(outp[1]));
      if (!budget.empty()) {
        args.push_back("--max-seconds");
        args.push_back(budget);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(cfg_.exe.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(ctrl[0]);
    ::close(outp[1]);
    w.pid = pid;
    w.ctrl_fd = ctrl[1];
    w.out_fd = outp[0];
    w.buf = {};
    w.rows_received = 0;
    w.alive = true;
  }

  void reap(std::size_t slot, const Hooks& hooks) {
    auto& w = slots_[slot];
    if (w.ctrl_fd >= 0) ::close(w.ctrl_fd);
    if (w.out_fd >= 0) ::close(w.out_fd);
    w.ctrl_fd = w.out_fd = -1;
    int st = 0;
    ::waitpid(w.pid, &st, 0);
    w.pid = -1;
    w.alive = false;
    // EX_TEMPFAIL: the worker's own --max-seconds budget fired (or it
    // saw fleet-stop EOF).  Graceful — the run ends on the delivered
    // prefix.  Anything else is a death whose slice must be reassigned.
    hooks.on_down(slot, WIFEXITED(st) && WEXITSTATUS(st) == 75);
  }

  Config cfg_;
  std::vector<Worker> slots_;
  std::size_t respawns_ = 0;
  // Test hook: SFLY_DISPATCH_TEST_KILL="W:K" SIGKILLs worker W after the
  // parent has received K of its rows — deterministic worker-death tests.
  long kill_slot_ = -1;
  std::size_t kill_after_rows_ = 0;
  bool kill_fired_ = false;
};

}  // namespace

// --- CampaignDispatcher (parent) -------------------------------------------

CampaignDispatcher::CampaignDispatcher(Config cfg) {
  if (cfg.workers == 0)
    throw std::invalid_argument("CampaignDispatcher: workers must be >= 1");
  // A worker can die holding a pipe or socket we are about to write; the
  // write must fail with EPIPE, not kill the parent.
  ::signal(SIGPIPE, SIG_IGN);
  if (cfg.transport) {
    transport_ = std::move(cfg.transport);
  } else {
    PipeTransport::Config pc;
    pc.workers = cfg.workers;
    pc.exe = cfg.exe;
    pc.worker_argv = cfg.worker_argv;
    pc.max_seconds = cfg.max_seconds;
    pc.start = cfg.start;
    pc.max_respawns = cfg.max_respawns;
    transport_ = std::make_unique<PipeTransport>(std::move(pc));
  }
  slots_.resize(transport_->width());
}

CampaignDispatcher::~CampaignDispatcher() { transport_->shutdown(); }

void CampaignDispatcher::catch_up(std::size_t slot) {
  // Replay the completed-batch history through the normal protocol with
  // empty slices: the fresh worker's campaign logic consumes each batch
  // like a --resume replay, reconstructing the in-memory state (and any
  // adaptive schedule) every other process already holds.
  for (const auto& rec : history_) {
    std::string payload = rec.meta_line + slice_line(0, 0);
    for (const auto& row : rec.rows) {
      payload += row;
      payload += '\n';
    }
    transport_->send(slot, payload);
  }
}

std::size_t CampaignDispatcher::run_batch(Engine& eng, const BatchMeta& m,
                                          const std::vector<Scenario>& batch,
                                          const std::vector<ResultSink*>& sinks,
                                          const Engine::StreamOptions& opts) {
  (void)eng;
  return run_batch_impl(m, batch, sinks, opts,
                        [](const std::string& line) {
                          return CampaignJournal::parse_result(line);
                        });
}

std::size_t CampaignDispatcher::run_batch(Engine& eng, const BatchMeta& m,
                                          const std::vector<SimScenario>& batch,
                                          const std::vector<ResultSink*>& sinks,
                                          const Engine::StreamOptions& opts) {
  (void)eng;
  return run_batch_impl(m, batch, sinks, opts,
                        [](const std::string& line) {
                          return CampaignJournal::parse_sim_result(line);
                        });
}

template <typename Scen, typename Parse>
std::size_t CampaignDispatcher::run_batch_impl(
    const BatchMeta& m, const std::vector<Scen>& batch,
    const std::vector<ResultSink*>& sinks, const Engine::StreamOptions& opts,
    Parse&& parse) {
  const std::size_t n = batch.size();
  for (auto* s : sinks) s->begin(n);
  if (n == 0 || fleet_stopped_) {
    // Fleet already budget-stopped: deliver nothing so the campaign
    // records the stop and exits 75 (resumable single-process).
    for (auto* s : sinks) s->end();
    return 0;
  }

  const std::size_t W = transport_->width();
  const std::string meta_line = jsonl_meta(m);
  for (std::size_t wi = 0; wi < W; ++wi) {
    const auto [lo, hi] = shard_range(n, wi, W);
    slots_[wi].cursor = lo;
    slots_[wi].hi = hi;
  }

  std::vector<std::string> rows(n);
  std::vector<char> have(n, 0);
  std::size_t next = 0;  // the in-order delivery frontier
  std::string err;
  std::size_t zombie_rows = 0;

  Transport::Hooks hooks;
  hooks.on_line = [&](std::size_t wi, const std::string& line) {
    if (!err.empty()) return;
    if (line.rfind("{\"error\":", 0) == 0) {
      // A worker's abort diagnostic; shown raw if it does not scan.
      JsonObject j;
      if (!JsonObject::scan(line, j) || !j.get_str("error", err) || err.empty())
        err = line;
      return;
    }
    Slot& s = slots_[wi];
    const auto ri = dispatch_detail::row_index(line);
    if (!ri || s.cursor >= s.hi || *ri != opts.index_base + s.cursor) {
      err = "worker sent row index " +
            (ri ? std::to_string(*ri) : std::string("?")) + " where " +
            std::to_string(opts.index_base + s.cursor) + " was expected";
      return;
    }
    rows[s.cursor] = line;
    have[s.cursor] = 1;
    ++s.cursor;
    transport_->note_row(wi);
  };
  hooks.on_zombie_line = [&](std::size_t, const std::string& line) {
    // A fenced epoch re-sending rows its replacement also evaluates:
    // detect, count, and discard — a committed row is delivered exactly
    // once, from whichever epoch currently holds the slice lease.
    if (dispatch_detail::row_index(line)) ++zombie_rows;
  };
  hooks.on_down = [&](std::size_t, bool graceful) {
    if (graceful) fleet_stopped_ = true;
    // The slice stays on the slot; a replacement (respawn or reconnect)
    // picks it up at the cursor — complete rows kept, torn tail dropped.
  };
  hooks.on_join = [&](std::size_t wi) {
    catch_up(wi);
    const Slot& s = slots_[wi];
    transport_->send(wi, meta_line + slice_line(s.cursor, s.hi));
  };
  hooks.stop_waiting = [&] { return !err.empty() || fleet_stopped_; };

  if (!started_) {
    started_ = true;
    transport_->start(hooks);
  } else {
    for (std::size_t wi = 0; wi < W; ++wi) {
      if (transport_->up(wi)) {
        const Slot& s = slots_[wi];
        transport_->send(wi, meta_line + slice_line(s.cursor, s.hi));
      } else {
        // Died at broadcast time of an earlier batch (pipes respawn
        // now; a TCP slot keeps waiting for its next --connect join,
        // which gets the assignment from on_join).
        transport_->replace(wi, hooks);
      }
    }
  }

  auto deliver_ready = [&] {
    while (next < n && have[next]) {
      auto r = parse(rows[next]);
      if (!r) {
        transport_->shutdown();
        throw std::runtime_error(
            std::string(transport_->tag()) + ": row " + std::to_string(next) +
            " of batch '" + m.batch +
            "' failed the journal round-trip check — wire corruption or a "
            "worker/parent serialization mismatch");
      }
      for (auto* s : sinks) s->consume(*r);
      ++next;
    }
  };
  auto owner_of = [&](std::size_t idx) -> std::size_t {
    for (std::size_t wi = 0; wi < W; ++wi) {
      const auto [lo, hi] = shard_range(n, wi, W);
      if (idx >= lo && idx < hi) return wi;
    }
    return W - 1;
  };

  auto last_wait_notice = std::chrono::steady_clock::now();
  while (next < n) {
    deliver_ready();
    if (next >= n) break;
    // Once the fleet is stopping, the frontier can only advance while the
    // worker that owns it is still draining; a down (75-exited) owner
    // means the batch ends here, on the delivered prefix.
    if (fleet_stopped_ && !transport_->up(owner_of(next))) break;
    if (!fleet_stopped_ && opts.stop_after && opts.stop_after())
      fleet_stopped_ = true;  // parent budget: workers stop themselves

    bool any_up = false;
    for (std::size_t wi = 0; wi < W && !any_up; ++wi)
      any_up = transport_->up(wi);
    if (!any_up && !fleet_stopped_ && !transport_->waits_for_joins()) {
      transport_->shutdown();
      throw std::runtime_error(std::string(transport_->tag()) +
                               ": every worker is dead");
    }
    if (!any_up && transport_->waits_for_joins() && !fleet_stopped_) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_wait_notice > std::chrono::seconds(10)) {
        last_wait_notice = now;
        std::fprintf(stderr,
                     "# %s: no workers connected; %zu row(s) pending — "
                     "waiting for --connect joins\n",
                     transport_->tag(), n - next);
      }
    }

    transport_->pump(500, hooks);
    if (!err.empty()) {
      transport_->shutdown();
      throw std::runtime_error(std::string(transport_->tag()) + ": " + err);
    }

    // Lease expiry: a slot that owes rows but has not been heard for a
    // full lease is partitioned or wedged.  Fence its epoch (late rows
    // become countable zombies, never deliveries) and reassign the
    // remaining slice to the next join — the same complete-rows-kept /
    // torn-tail-dropped path a death takes.
    const double lease = transport_->lease_seconds();
    if (lease > 0 && !fleet_stopped_) {
      for (std::size_t wi = 0; wi < W; ++wi) {
        Slot& s = slots_[wi];
        if (!transport_->up(wi) || s.cursor >= s.hi) continue;
        const double idle = transport_->idle_seconds(wi);
        if (idle <= lease) continue;
        std::fprintf(stderr,
                     "# %s: worker slot %zu lease expired (idle %.1fs > "
                     "%.1fs) — fencing its epoch; rows %zu..%zu will be "
                     "reassigned to the next join\n",
                     transport_->tag(), wi, idle, lease, s.cursor, s.hi);
        transport_->replace(wi, hooks);
      }
    }

    // Bring up replacements for down slots that still owe rows.
    if (!fleet_stopped_) {
      for (std::size_t wi = 0; wi < W; ++wi) {
        if (!transport_->up(wi) && slots_[wi].cursor < slots_[wi].hi)
          transport_->replace(wi, hooks);
      }
    }
  }
  deliver_ready();
  for (auto* s : sinks) s->end();
  if (zombie_rows > 0)
    std::fprintf(stderr,
                 "# %s: discarded %zu late row(s) from fenced worker "
                 "epoch(s) — each was re-evaluated and delivered exactly "
                 "once by the lease holder\n",
                 transport_->tag(), zombie_rows);

  if (next == n) {
    // Batch complete: record it and broadcast the full row set, so every
    // worker replays it and all processes' downstream state (report
    // collections, adaptive wave schedules) stays bitwise identical.
    history_.push_back({meta_line, rows});
    std::string payload;
    for (const auto& row : rows) {
      payload += row;
      payload += '\n';
    }
    for (std::size_t wi = 0; wi < W; ++wi)
      if (transport_->up(wi)) transport_->send(wi, payload);
  }
  return next;
}

// --- CampaignWorker (the --worker-fd / --connect process) ------------------

namespace {

// The pipe end of the worker seam: stdio FILE*s over the fd pair the
// --workers parent forked us with.  EOF on the control pipe is always a
// graceful fleet stop (the kernel EOFs a pipe only when the parent is
// done with us or gone — there is no partition to reconnect across).
class PipeChannel final : public WorkerChannel {
 public:
  PipeChannel(int in_fd, int out_fd) {
    in_ = ::fdopen(in_fd, "r");
    out_ = ::fdopen(out_fd, "w");
    if (!in_ || !out_)
      throw std::runtime_error(
          "--worker-fd: cannot open the dispatch pipe fds (this flag is "
          "passed by the --workers parent, not by hand)");
  }
  ~PipeChannel() override {
    if (in_) std::fclose(in_);
    if (out_) std::fclose(out_);
  }

  bool read_line(std::string& line) override {
    line.clear();
    int c;
    while ((c = std::fgetc(in_)) != EOF) {
      if (c == '\n') return true;
      line.push_back(static_cast<char>(c));
    }
    return false;
  }
  [[nodiscard]] bool graceful_end() const override { return true; }
  void write_line(const std::string& bytes) override {
    std::fwrite(bytes.data(), 1, bytes.size(), out_);
    std::fflush(out_);
  }
  void announce_stop() override { std::fflush(out_); }

 private:
  std::FILE* in_ = nullptr;
  std::FILE* out_ = nullptr;
};

}  // namespace

CampaignWorker::CampaignWorker(int in_fd, int out_fd)
    : CampaignWorker(std::make_unique<PipeChannel>(in_fd, out_fd)) {}

CampaignWorker::CampaignWorker(std::unique_ptr<WorkerChannel> channel)
    : channel_(std::move(channel)) {
  ::signal(SIGPIPE, SIG_IGN);
}

CampaignWorker::~CampaignWorker() = default;

void CampaignWorker::stream_ended() {
  if (channel_->graceful_end()) {
    // Control-stream end (fleet shutdown / BYE) or our own budget: flush
    // what we streamed and exit EX_TEMPFAIL, which the parent treats as
    // a graceful stop, never a death.
    channel_->announce_stop();
    std::exit(75);
  }
  // The link died without a BYE: our lease will be fenced and the slice
  // reassigned.  Exit the reconnect code so a supervisor (sfly_worker)
  // dials back in with backoff for a fresh slice.
  std::fprintf(stderr,
               "# --connect: link to the parent lost mid-run — exiting %d "
               "for the supervisor to reconnect\n",
               net::kExitLinkLost);
  std::exit(net::kExitLinkLost);
}

namespace {

// Streams each freshly evaluated row straight to the parent, one flush
// per line: a kill mid-scenario costs the fleet at most one partial line.
class ChannelRowSink final : public ResultSink {
 public:
  explicit ChannelRowSink(WorkerChannel& ch) : ch_(ch) {}
  void consume(const Result& r) override { ch_.write_line(jsonl_row(r)); }
  void consume(const SimResult& r) override { ch_.write_line(jsonl_row(r)); }
  [[nodiscard]] bool wants_replay() const override { return false; }

 private:
  WorkerChannel& ch_;
};

}  // namespace

std::size_t CampaignWorker::run_batch(Engine& eng, const BatchMeta& m,
                                      const std::vector<Scenario>& batch,
                                      const std::vector<ResultSink*>& sinks,
                                      const Engine::StreamOptions& opts) {
  return run_batch_impl(
      m, batch, sinks, opts,
      [](const std::string& line) { return CampaignJournal::parse_result(line); },
      [&eng](const std::vector<Scenario>& slice,
             const std::vector<ResultSink*>& ps,
             const Engine::StreamOptions& so) {
        return eng.run_stream(slice, ps, so);
      });
}

std::size_t CampaignWorker::run_batch(Engine& eng, const BatchMeta& m,
                                      const std::vector<SimScenario>& batch,
                                      const std::vector<ResultSink*>& sinks,
                                      const Engine::StreamOptions& opts) {
  return run_batch_impl(
      m, batch, sinks, opts,
      [](const std::string& line) {
        return CampaignJournal::parse_sim_result(line);
      },
      [&eng](const std::vector<SimScenario>& slice,
             const std::vector<ResultSink*>& ps,
             const Engine::StreamOptions& so) {
        return eng.run_sims_stream(slice, ps, so);
      });
}

template <typename Scen, typename Parse, typename Run>
std::size_t CampaignWorker::run_batch_impl(const BatchMeta& m,
                                           const std::vector<Scen>& batch,
                                           const std::vector<ResultSink*>& sinks,
                                           const Engine::StreamOptions& opts,
                                           Parse&& parse, Run&& run) {
  const std::size_t n = batch.size();
  for (auto* s : sinks) s->begin(n);
  if (n == 0) {  // both sides skip the protocol for an empty batch
    for (auto* s : sinks) s->end();
    return 0;
  }

  // The parent's batch header must equal the one THIS binary's declaration
  // produces, byte for byte — the decl fingerprint inside it catches any
  // knob skew, so a stale worker binary is refused before evaluating
  // anything under the wrong declaration.
  std::string expected = jsonl_meta(m);
  expected.pop_back();  // read_line strips the terminator
  if (const char* skew = std::getenv("SFLY_WORKER_DECL_SKEW"); skew && *skew)
    expected += skew;  // test hook: simulate a stale binary's declaration
  std::string line;
  if (!channel_->read_line(line)) stream_ended();
  if (line != expected) {
    channel_->write_line(
        "{\"error\":" +
        json_quote("worker declaration mismatch on batch '" + m.batch +
                   "': this binary expands the campaign differently from "
                   "the parent (stale worker binary?)") +
        "}\n");
    std::exit(2);
  }

  if (!channel_->read_line(line)) stream_ended();
  std::size_t lo = 0, hi = 0;
  if (!parse_slice(line, lo, hi) || lo > hi || hi > n)
    throw std::runtime_error("worker: malformed slice assignment '" + line +
                             "'");

  std::vector<Scen> slice(batch.begin() + static_cast<std::ptrdiff_t>(lo),
                          batch.begin() + static_cast<std::ptrdiff_t>(hi));
  ChannelRowSink row_sink(*channel_);
  std::vector<ResultSink*> ps{&row_sink};
  Engine::StreamOptions so;
  so.index_base = opts.index_base + lo;
  so.stop_after = opts.stop_after;
  const std::size_t delivered = run(slice, ps, so);
  if (delivered < slice.size()) {  // own budget fired mid-slice
    channel_->announce_stop();
    std::exit(75);
  }

  // Batch broadcast: all n rows come back (including this worker's own).
  // Feeding them to the campaign's sinks keeps every process's collected
  // results — and any schedule derived from them — bitwise identical.
  for (std::size_t i = 0; i < n; ++i) {
    if (!channel_->read_line(line)) stream_ended();
    auto r = parse(line);
    if (!r || r->index != opts.index_base + i)
      throw std::runtime_error(
          "worker: broadcast row " + std::to_string(i) + " of batch '" +
          m.batch + "' failed the journal round-trip check");
    for (auto* s : sinks) s->consume(*r);
  }
  for (auto* s : sinks) s->end();
  return n;
}

}  // namespace sfly::engine
