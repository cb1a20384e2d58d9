#pragma once
/// \file transport_tcp.hpp
/// The one fleet transport behind `--workers N` (local) and
/// `--listen PORT --workers N` / `--connect HOST:PORT` (cross-machine);
/// docs/CAMPAIGNS.md §Distributed runs and §Cross-machine runs.
///
/// TcpTransport is the parent side.  Every worker slot is one framed
/// connection (util/net.hpp) bound under a monotonically increasing
/// **epoch**, and every slice is held under a **lease**: both sides
/// heartbeat every lease/3, and a slot silent for a full lease is
/// reported through idle_seconds() so the dispatcher can replace it.
/// Each DATA frame carries exactly one protocol line, so a frame is the
/// only message boundary and a torn frame is the only torn tail.
///
/// A local fleet (no `--listen`) fork+execs each worker with one end of
/// a socketpair() passed as `--worker-fd FD`, binds that connection to
/// its slot at spawn, and replaces a dead or lease-expired worker by
/// SIGKILLing, reaping and respawning it (bounded by max_respawns).  A
/// `--listen` fleet accepts TCP joins instead, and replace() is
/// passive: it fences the slot's epoch — anything the superseded
/// connection sends afterwards is routed to on_zombie_line (counted and
/// discarded, never delivered) — and the next join replays history and
/// takes over the slice at the cursor.  A probe connection (HELLO role
/// "probe") is answered with the bench binary + argv a joining machine
/// should exec, then closed: that is how `sfly_worker` learns what to
/// run without shipping binaries.
///
/// SocketChannel is the worker side of the same wire: it dials with
/// exponential backoff + jitter (or takes the inherited `--worker-fd`
/// socket), handshakes (HELLO/WELCOME carries the protocol version,
/// lease parameters, and the fleet's remaining --max-seconds budget),
/// heartbeats from a background thread so leases survive long scenario
/// evaluations, and classifies stream end: EOF after a BYE frame is a
/// graceful fleet stop (exit 75), anything else is a lost link (exit
/// 76, reconnect via sfly_worker).

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/net.hpp"

namespace sfly::engine {

class TcpTransport {
 public:
  struct Config {
    std::size_t workers = 2;
    /// -1 = local fleet (fork+exec over socketpairs); otherwise the TCP
    /// port to accept joins on (0 = ephemeral, printed, and written to
    /// $SFLY_LISTEN_PORT_FILE for scripting).
    int listen_port = -1;
    int lease_ms = 10000;  ///< slice lease; heartbeats every lease/3
    /// Bench binary: exec'd per local spawn; its basename answers
    /// probes.
    std::string exe = "/proc/self/exe";
    /// argv[1..] for workers: the parent's args minus output/control
    /// flags (local spawns append --worker-fd).
    std::vector<std::string> worker_argv;
    /// Whole-fleet wall-clock budget (0 = none): every WELCOME carries
    /// the budget REMAINING at bind time, so replacements never reset
    /// the clock.
    double max_seconds = 0.0;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    /// Local respawns tolerated per run before giving up (guards
    /// against a crash loop re-evaluating the same scenario).
    std::size_t max_respawns = 8;
  };

  /// Per-slot events, fired synchronously inside start()/pump()/
  /// replace() on the dispatcher's thread.
  struct Hooks {
    /// A protocol line (one DATA frame) from slot's CURRENT worker.
    std::function<void(std::size_t, const std::string&)> on_line;
    /// A line from a superseded (fenced) worker still bound to the
    /// slot's previous epoch — late duplicates to count and discard.
    std::function<void(std::size_t, const std::string&)> on_zombie_line;
    /// The slot's worker ended; graceful = it announced a budget stop
    /// (STOP frame, or a local child's exit 75) rather than dying.
    std::function<void(std::size_t, bool)> on_down;
    /// A fresh worker is bound to the slot (spawn, respawn, join); the
    /// dispatcher replays history and assigns the slot's slice.
    std::function<void(std::size_t)> on_join;
    /// True once the dispatcher no longer needs a whole fleet: a fatal
    /// protocol error, a graceful worker stop, or the parent's own
    /// budget/signal stop.  start() returns when this fires instead of
    /// waiting for joins that may never come.
    std::function<bool()> stop_waiting;
  };

  explicit TcpTransport(Config cfg);
  ~TcpTransport();
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] std::size_t width() const { return cfg_.workers; }
  /// Bring the fleet up: spawn every local slot, or block until every
  /// slot has a --connect join (or stop_waiting fires).
  void start(const Hooks& hooks);
  [[nodiscard]] bool up(std::size_t slot) const;
  /// Queue one protocol line (unterminated) to the slot's current
  /// worker.  Best effort: a failure here is a death in progress that
  /// pump() surfaces as on_down.
  void send(std::size_t slot, const std::string& line);
  /// Wait up to timeout_ms for traffic and dispatch it through hooks.
  void pump(int timeout_ms, const Hooks& hooks);
  /// Discard the slot's current worker (if any) and arrange a
  /// replacement: a local slot respawns now (on_join fires before this
  /// returns; throws once the respawn budget is spent); a --listen slot
  /// is fenced and waits for the next join.
  void replace(std::size_t slot, const Hooks& hooks);
  /// Seconds since the slot's worker was last heard (any frame).
  [[nodiscard]] double idle_seconds(std::size_t slot) const;
  [[nodiscard]] double lease_seconds() const { return cfg_.lease_ms / 1000.0; }
  /// The dispatcher accepted a row from the slot (the fault-injection
  /// test hooks key off per-slot row counts).
  void note_row(std::size_t slot);
  void shutdown();

 private:
  struct Conn {
    int fd = -1;
    pid_t pid = -1;  ///< local child on the other end (-1 = TCP peer)
    net::FrameReader frames;
    std::string outbox;
    std::uint64_t epoch = 0;
    long slot = -1;  ///< bound worker slot; -1 = pending hello / probe
    bool greeted = false;     ///< valid HELLO seen: DATA is acceptable
    bool zombie = false;      ///< fenced: lines go to on_zombie_line
    bool said_stop = false;   ///< STOP frame seen: EOF will be graceful
    bool close_when_flushed = false;  ///< probes / busy rejections
    bool dead = false;        ///< reap on next sweep
    bool hup = false;         ///< the peer closed (vs. we gave up on it)
    std::uint32_t last_seq_in = 0;
    std::uint32_t next_seq_out = 1;
    std::chrono::steady_clock::time_point last_heard;
    std::chrono::steady_clock::time_point last_hb_sent;
  };
  /// Test hook "S:K" from the environment: act once on slot S after the
  /// parent has accepted K of its rows.
  struct RowHook {
    std::optional<std::size_t> slot;  // unset: the hook never fires
    std::size_t after = 0;
    bool fired = false;
    explicit RowHook(const char* env);
    bool due(std::size_t s, std::size_t rows);
  };

  [[nodiscard]] bool local() const { return cfg_.listen_port < 0; }
  void spawn(std::size_t slot, const Hooks& hooks);
  Conn& add_conn(int fd);
  void accept_new();
  void read_conn(Conn& c, const Hooks& hooks);
  void handle_frame(Conn& c, const net::Frame& f, const Hooks& hooks);
  void bind(Conn& c, std::size_t slot, const Hooks& hooks);
  void bind_join(Conn& c, const Hooks& hooks);
  void queue_frame(Conn& c, net::FrameType type, std::string_view payload);
  void try_flush(Conn& c);
  void fence(std::size_t slot);
  void sweep(const Hooks& hooks);  ///< reap dead/EOF conns, fire on_down

  Config cfg_;
  int listen_fd_ = -1;
  int heartbeat_ms_ = 0;
  std::list<Conn> conns_;
  std::vector<Conn*> slot_;  ///< current conn per slot (null = down)
  std::uint64_t epoch_counter_ = 0;
  std::size_t respawns_ = 0;
  std::size_t dup_frames_ = 0;  ///< duplicate DATA frames dropped by seq
  std::vector<std::size_t> slot_rows_;
  // SFLY_DISPATCH_TEST_KILL SIGKILLs a local worker and
  // SFLY_TCP_TEST_FENCE fences a slot's epoch: deterministic death and
  // lease-expiry tests without real crashes or stalls.  Each reads
  // SLOT:ROWS; a malformed value exits 2 naming the variable.
  RowHook kill_hook_{"SFLY_DISPATCH_TEST_KILL"};
  RowHook fence_hook_{"SFLY_TCP_TEST_FENCE"};
};

/// Worker end of the wire: the `--worker-fd FD` or `--connect HOST:PORT`
/// process.
class SocketChannel {
 public:
  struct Config {
    std::string host;
    std::uint16_t port = 0;
    std::size_t attempts = 40;      ///< dial attempts before giving up
    std::uint64_t backoff_base_ms = 200;
    std::uint64_t backoff_max_ms = 5000;
  };

  /// Dials, handshakes, and starts the heartbeat thread; throws when the
  /// parent stays unreachable (or full) past the attempt budget.
  explicit SocketChannel(const Config& cfg);
  /// Handshakes over a socket inherited from a local --workers parent;
  /// throws when no WELCOME arrives.
  explicit SocketChannel(int fd);
  ~SocketChannel();
  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  /// Next protocol line; false when the stream ended — graceful_end()
  /// then says whether that was a fleet stop (exit 75) or a lost link
  /// (exit 76, reconnect).
  [[nodiscard]] bool read_line(std::string& line);
  [[nodiscard]] bool graceful_end() const { return bye_; }
  /// Send one protocol line (unterminated) as one DATA frame — a kill
  /// loses at most one torn frame.
  void write_line(std::string_view line);
  /// About to exit 75 on our own budget: tell the parent it is a
  /// graceful stop, not a death.
  void announce_stop();
  /// Parent-assigned remaining --max-seconds budget (0 = none), so
  /// respawned and rejoined workers share the fleet clock.
  [[nodiscard]] double budget_seconds() const { return budget_s_; }

 private:
  [[nodiscard]] bool handshake(int fd);
  void begin();  ///< post-handshake: send timeout, heartbeat thread
  void process_frame(const net::Frame& f);

  int fd_ = -1;
  net::FrameReader frames_;
  std::deque<std::string> ready_;
  bool bye_ = false;    ///< parent said BYE: stream end is graceful
  bool ended_ = false;  ///< EOF seen
  std::atomic<bool> lost_{false};  ///< link died / deadline blown
  int lease_ms_ = 10000;
  int heartbeat_ms_ = 3333;
  double budget_s_ = 0.0;
  std::uint32_t next_seq_out_ = 1;
  std::uint32_t last_seq_in_ = 0;
  std::chrono::steady_clock::time_point last_parent_;
  std::mutex write_mu_;
  std::thread hb_thread_;
  std::atomic<bool> stop_hb_{false};
};

}  // namespace sfly::engine
