#pragma once
/// \file dispatch.hpp
/// Multi-process campaign dispatch — the `--workers N` / `--listen` /
/// `--connect` implementation (docs/CAMPAIGNS.md §Distributed runs).
///
/// CampaignDispatcher farms every campaign batch to N worker slots.  Per
/// batch the parent sends each slot the
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
/// One transport carries every fleet (TcpTransport, transport_tcp.hpp):
/// one framed connection per worker slot, one protocol line per DATA
/// frame, every slice held under a heartbeat lease.  Plain `--workers N`
/// re-execs the bench binary N times on this machine, each over its own
/// socketpair() (`--worker-fd FD`); `--listen PORT --workers N` accepts
/// `--connect` joins from other machines over TCP instead.
///
/// Fault tolerance is the same for both: a worker that dies (crash,
/// kill -9, lost connection) leaves a partial row stream behind; the
/// parent keeps its complete frames, drops a torn one exactly like
/// `--resume` truncation, and hands the remaining rows plus the
/// completed-batch history to a replacement (a fresh process for a
/// local slot, the next `--connect` join for TCP).  A worker whose
/// lease expires — stopped, partitioned or wedged, it stopped
/// heartbeating — is replaced the same way: a local one is SIGKILLed
/// and respawned; a remote one is fenced, its connection epoch
/// superseded, so any rows it sends after the fence are counted and
/// discarded (never double-delivered to sinks).  A worker exiting 75
/// (EX_TEMPFAIL, its own `--max-seconds` budget) is a graceful fleet
/// stop, not a death: the parent stops the batch on the delivered
/// contiguous prefix and propagates the resumable exit.  A worker whose
/// re-computed batch header differs from the parent's (a stale binary —
/// the decl fingerprint catches any knob skew) aborts the whole run.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "engine/sink.hpp"
#include "engine/transport_tcp.hpp"

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

/// The leading `"index":N` of a journal row line; nullopt when the line
/// is not a result row.  Cheap positional check for the wire protocol.
[[nodiscard]] std::optional<std::size_t> row_index(const std::string& line);

}  // namespace dispatch_detail

/// Parent side of `--workers N`.  Owned by StandardOptions; installed as
/// RunControl::runner.  The fleet is brought up lazily at the first
/// batch and shut down (BYE frame -> workers exit 75) on destruction.
class CampaignDispatcher final : public BatchRunner {
 public:
  using Config = TcpTransport::Config;

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

 private:
  struct Slot {
    std::size_t cursor = 0;  ///< next batch index this slot will report
    std::size_t hi = 0;      ///< end of its slice
  };
  struct BatchRecord {  ///< completed batch, for catching up joiners
    std::string meta_line;          // jsonl_meta(m), unterminated
    std::vector<std::string> rows;  // n jsonl_row lines, unterminated
  };

  template <typename Scen, typename Parse>
  std::size_t run_batch_impl(const BatchMeta& m,
                             const std::vector<Scen>& batch,
                             const std::vector<ResultSink*>& sinks,
                             const Engine::StreamOptions& opts,
                             Parse&& parse);
  void catch_up(std::size_t slot);  ///< replay completed-batch history

  TcpTransport transport_;
  std::vector<Slot> slots_;
  std::vector<BatchRecord> history_;
  bool started_ = false;
  bool fleet_stopped_ = false;
};

/// Worker side of campaign dispatch.  Reads batch headers / slice
/// assignments / row broadcasts from its channel, verifies each header
/// byte-for-byte against the one this process's own declaration
/// produces (decl fingerprint included — a stale binary is refused),
/// evaluates its slice with the in-process engine, and streams the rows
/// back one frame per row.  A graceful stream end (BYE frame) is the
/// fleet-stop signal: exit 75; a torn link exits 76 so a supervisor
/// (sfly_worker) can reconnect.
class CampaignWorker final : public BatchRunner {
 public:
  explicit CampaignWorker(std::unique_ptr<SocketChannel> channel);
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

  std::unique_ptr<SocketChannel> channel_;
};

}  // namespace sfly::engine
