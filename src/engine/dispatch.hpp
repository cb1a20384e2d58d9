#pragma once
/// \file dispatch.hpp
/// Multi-process campaign dispatch — the `--workers N` / `--listen` /
/// `--connect` implementation (docs/CAMPAIGNS.md §Distributed runs).
///
/// CampaignDispatcher farms every campaign batch to N worker slots over
/// a pluggable Transport.  Per batch the parent sends each slot the
/// batch's `jsonl_meta` header plus a `{"slice":[lo,hi]}` assignment;
/// workers evaluate their slice and stream the `jsonl_row` lines back;
/// the parent interleaves the streams and delivers rows to its sinks
/// strictly in batch order, live (journal numbers are `%.17g`, so a
/// parsed row is bitwise the evaluated one and the merged output is
/// byte-identical to a single-process run).  After each batch the parent
/// broadcasts the full row set back to every worker, which replays it
/// like a `--resume` — so all processes' in-memory results, and
/// therefore every downstream decision (report tables, AdaptiveSweep's
/// CoV wave schedule), stay bitwise identical.  That replication is what
/// lets `--workers` drive adaptive sweeps that `--shard` must refuse.
///
/// Two transports exist.  PipeTransport (plain `--workers N`) re-execs
/// the bench binary N times on this machine, a pipe pair per worker.
/// TcpTransport (`--listen PORT --workers N`, see transport_tcp.hpp)
/// accepts `--connect` joins from other machines over framed TCP and
/// holds every slice under a heartbeat lease.
///
/// Fault tolerance is transport-independent: a worker that dies (crash,
/// kill -9, lost connection) leaves a partial row stream behind; the
/// parent keeps its complete lines, drops the half-written tail exactly
/// like `--resume` truncation, and hands the remaining rows plus the
/// completed-batch history to a replacement (a fresh process for pipes,
/// the next `--connect` join for TCP).  A worker whose lease expires —
/// partitioned or wedged, it stopped heartbeating — is fenced: its
/// connection epoch is superseded, any rows it sends after the fence
/// are counted and discarded (never double-delivered to sinks), and its
/// slice is reassigned the same way.  A worker exiting 75 (EX_TEMPFAIL,
/// its own `--max-seconds` budget) is a graceful fleet stop, not a
/// death: the parent stops the batch on the delivered contiguous prefix
/// and propagates the resumable exit.  A worker whose re-computed batch
/// header differs from the parent's (a stale binary — the decl
/// fingerprint catches any knob skew) aborts the whole run.

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "engine/sink.hpp"

namespace sfly::engine {

/// Pluggable batch evaluator behind RunControl::runner: Campaign and
/// AdaptiveSweep hand each batch here instead of calling
/// Engine::run_stream directly.  Implementations must honor the engine's
/// streaming contract — sinks get begin(n), rows strictly in batch
/// order, then end() — and return the delivered count (== batch size
/// unless the run is stopping).
class BatchRunner {
 public:
  virtual ~BatchRunner() = default;
  virtual std::size_t run_batch(Engine& eng, const BatchMeta& m,
                                const std::vector<Scenario>& batch,
                                const std::vector<ResultSink*>& sinks,
                                const Engine::StreamOptions& opts) = 0;
  virtual std::size_t run_batch(Engine& eng, const BatchMeta& m,
                                const std::vector<SimScenario>& batch,
                                const std::vector<ResultSink*>& sinks,
                                const Engine::StreamOptions& opts) = 0;
};

namespace dispatch_detail {

/// Splits a byte stream into '\n'-terminated lines, holding the
/// half-written tail until its terminator arrives — the streaming
/// equivalent of --resume's tail truncation.  If the stream ends (EOF,
/// worker death) the pending bytes are exactly the partial line to drop.
class LineBuffer {
 public:
  /// Append `n` bytes; invoke fn(line) for each completed line (without
  /// the trailing '\n').
  template <typename Fn>
  void feed(const char* data, std::size_t n, Fn&& fn) {
    pending_.append(data, n);
    std::size_t start = 0;
    for (;;) {
      const auto nl = pending_.find('\n', start);
      if (nl == std::string::npos) break;
      fn(pending_.substr(start, nl - start));
      start = nl + 1;
    }
    pending_.erase(0, start);
  }
  /// Bytes of an unterminated final line (dropped on worker death).
  [[nodiscard]] const std::string& pending() const { return pending_; }

 private:
  std::string pending_;
};

/// The leading `"index":N` of a journal row line; nullopt when the line
/// is not a result row.  Cheap positional check for the wire protocol.
[[nodiscard]] std::optional<std::size_t> row_index(const std::string& line);

}  // namespace dispatch_detail

/// The byte link between the dispatcher and its worker slots.  The
/// dispatcher owns WHAT flows (headers, slices, rows, broadcasts, the
/// lease/epoch policy); the transport owns HOW (pipes to forked
/// children, framed TCP connections) and reports per-slot events
/// through Hooks.  All hooks fire synchronously inside start()/pump()/
/// replace() on the dispatcher's thread.
class Transport {
 public:
  struct Hooks {
    /// A protocol line (terminator stripped) from slot's CURRENT worker.
    std::function<void(std::size_t, const std::string&)> on_line;
    /// A line from a superseded (fenced) worker still bound to the
    /// slot's previous epoch — late duplicates to count and discard.
    std::function<void(std::size_t, const std::string&)> on_zombie_line;
    /// The slot's worker ended; graceful = it announced a budget stop
    /// (exit 75 / STOP frame) rather than dying.
    std::function<void(std::size_t, bool)> on_down;
    /// A fresh worker is bound to the slot (spawn, respawn, reconnect);
    /// the dispatcher replays history and assigns the slot's slice.
    std::function<void(std::size_t)> on_join;
    /// True once the dispatcher no longer needs a whole fleet: it has
    /// recorded a fatal protocol error (e.g. a stale-declaration
    /// refusal) or a worker stopped gracefully on its budget.  A
    /// transport whose start() blocks waiting for joins must return
    /// when this fires: that worker is gone and the fleet may never
    /// assemble.
    std::function<bool()> stop_waiting;
  };

  virtual ~Transport() = default;
  [[nodiscard]] virtual std::size_t width() const = 0;
  /// Bring the fleet up; blocks until every slot has a worker, firing
  /// on_join per slot.
  virtual void start(const Hooks& hooks) = 0;
  [[nodiscard]] virtual bool up(std::size_t slot) const = 0;
  /// Queue bytes to the slot's current worker.  Best effort: a failure
  /// here is a death in progress that pump() will surface as on_down.
  virtual void send(std::size_t slot, const std::string& bytes) = 0;
  /// Wait up to timeout_ms for traffic and dispatch it through hooks.
  virtual void pump(int timeout_ms, const Hooks& hooks) = 0;
  /// Discard the slot's current worker (if any) and arrange a
  /// replacement: pipes respawn immediately (on_join fires before this
  /// returns, throws once the respawn budget is spent); TCP fences the
  /// current epoch and waits for the next --connect join.
  virtual void replace(std::size_t slot, const Hooks& hooks) = 0;
  /// Seconds since the slot's worker was last heard (any frame).  Pipe
  /// workers cannot stall silently, so pipes report 0 and leases stay
  /// off.
  [[nodiscard]] virtual double idle_seconds(std::size_t slot) const {
    (void)slot;
    return 0.0;
  }
  /// Lease duration; 0 disables lease expiry (pipes).
  [[nodiscard]] virtual double lease_seconds() const { return 0.0; }
  /// True when replace() is passive (TCP: replacements join on their
  /// own) — an all-slots-down fleet waits instead of aborting.
  [[nodiscard]] virtual bool waits_for_joins() const { return false; }
  /// The dispatcher accepted a row from the slot (fault-injection test
  /// hooks key off per-worker row counts).
  virtual void note_row(std::size_t slot) { (void)slot; }
  virtual void shutdown() = 0;
  /// Flag spelling for diagnostics ("--workers", "--listen").
  [[nodiscard]] virtual const char* tag() const = 0;
};

/// Parent side of `--workers N`.  Owned by StandardOptions; installed as
/// RunControl::runner.  The transport is brought up lazily at the first
/// batch and shut down (pipe EOF / BYE frame -> workers exit 75) on
/// destruction.
class CampaignDispatcher final : public BatchRunner {
 public:
  struct Config {
    std::size_t workers = 2;
    /// Binary to exec for each worker (the bench re-execs itself).
    std::string exe = "/proc/self/exe";
    /// argv[1..] for workers: the parent's args minus output/control
    /// flags; the pipe transport appends --worker-fd (and --max-seconds
    /// when a budget is set) per spawn.
    std::vector<std::string> worker_argv;
    /// Whole-fleet wall-clock budget (0 = none): each spawn gets the
    /// budget REMAINING at spawn time so respawned workers do not reset
    /// the clock.
    double max_seconds = 0.0;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    /// Worker deaths tolerated per run before the dispatcher gives up
    /// (guards against a crash loop re-evaluating the same scenario).
    std::size_t max_respawns = 8;
    /// Byte link to the worker fleet; null selects PipeTransport built
    /// from the fields above (plain --workers N on this machine).
    std::unique_ptr<Transport> transport;
  };

  explicit CampaignDispatcher(Config cfg);
  ~CampaignDispatcher() override;
  CampaignDispatcher(const CampaignDispatcher&) = delete;
  CampaignDispatcher& operator=(const CampaignDispatcher&) = delete;

  std::size_t run_batch(Engine& eng, const BatchMeta& m,
                        const std::vector<Scenario>& batch,
                        const std::vector<ResultSink*>& sinks,
                        const Engine::StreamOptions& opts) override;
  std::size_t run_batch(Engine& eng, const BatchMeta& m,
                        const std::vector<SimScenario>& batch,
                        const std::vector<ResultSink*>& sinks,
                        const Engine::StreamOptions& opts) override;

  /// A worker exited 75: the fleet is budget-stopped and the parent run
  /// should end on the delivered prefix (exit 75, resumable).
  [[nodiscard]] bool fleet_stopped() const { return fleet_stopped_; }

 private:
  struct Slot {
    std::size_t cursor = 0;  ///< next batch index this slot will report
    std::size_t hi = 0;      ///< end of its slice
  };
  struct BatchRecord {  ///< completed batch, for catching up joiners
    std::string meta_line;          // jsonl_meta(m), '\n'-terminated
    std::vector<std::string> rows;  // n jsonl_row lines, unterminated
  };

  template <typename Scen, typename Parse>
  std::size_t run_batch_impl(const BatchMeta& m,
                             const std::vector<Scen>& batch,
                             const std::vector<ResultSink*>& sinks,
                             const Engine::StreamOptions& opts,
                             Parse&& parse);
  void catch_up(std::size_t slot);  ///< replay completed-batch history

  std::unique_ptr<Transport> transport_;
  std::vector<Slot> slots_;
  std::vector<BatchRecord> history_;
  bool started_ = false;
  bool fleet_stopped_ = false;
};

/// The worker end of the dispatch protocol, behind the same seam: a
/// PipeChannel for `--worker-fd IN,OUT` forks, a SocketChannel
/// (transport_tcp.hpp) for `--connect HOST:PORT` joins.
class WorkerChannel {
 public:
  virtual ~WorkerChannel() = default;
  /// Next protocol line (terminator stripped); false when the stream
  /// ended — graceful_end() then says whether that was a fleet stop
  /// (exit 75) or a lost link (exit 76, reconnect).
  [[nodiscard]] virtual bool read_line(std::string& line) = 0;
  [[nodiscard]] virtual bool graceful_end() const = 0;
  /// Send one '\n'-terminated protocol line, flushed — a kill loses at
  /// most one partial line.
  virtual void write_line(const std::string& bytes) = 0;
  /// About to exit 75 on our own budget: tell the parent it is a
  /// graceful stop, not a death (pipes let waitpid carry the exit code;
  /// TCP sends a STOP frame).
  virtual void announce_stop() {}
  /// Parent-assigned remaining --max-seconds budget (0 = none); the
  /// TCP handshake carries it so respawned joiners share the fleet
  /// clock.
  [[nodiscard]] virtual double budget_seconds() const { return 0.0; }
};

/// Worker side of campaign dispatch.  Reads batch headers / slice
/// assignments / row broadcasts from its channel, verifies each header
/// byte-for-byte against the one this process's own declaration
/// produces (decl fingerprint included — a stale binary is refused),
/// evaluates its slice with the in-process engine, and streams the rows
/// back one flushed line at a time.  A graceful stream end (pipe EOF,
/// BYE frame) is the fleet-stop signal: flush and exit 75; a torn link
/// exits 76 so a supervisor (sfly_worker) can reconnect.
class CampaignWorker final : public BatchRunner {
 public:
  CampaignWorker(int in_fd, int out_fd);  ///< pipe worker (--worker-fd)
  explicit CampaignWorker(std::unique_ptr<WorkerChannel> channel);
  ~CampaignWorker() override;
  CampaignWorker(const CampaignWorker&) = delete;
  CampaignWorker& operator=(const CampaignWorker&) = delete;

  std::size_t run_batch(Engine& eng, const BatchMeta& m,
                        const std::vector<Scenario>& batch,
                        const std::vector<ResultSink*>& sinks,
                        const Engine::StreamOptions& opts) override;
  std::size_t run_batch(Engine& eng, const BatchMeta& m,
                        const std::vector<SimScenario>& batch,
                        const std::vector<ResultSink*>& sinks,
                        const Engine::StreamOptions& opts) override;

 private:
  template <typename Scen, typename Parse, typename Run>
  std::size_t run_batch_impl(const BatchMeta& m,
                             const std::vector<Scen>& batch,
                             const std::vector<ResultSink*>& sinks,
                             const Engine::StreamOptions& opts,
                             Parse&& parse, Run&& run);
  [[noreturn]] void stream_ended();  ///< fleet stop (75) or lost link (76)

  std::unique_ptr<WorkerChannel> channel_;
};

}  // namespace sfly::engine
