#pragma once
/// \file dispatch.hpp
/// Multi-process campaign dispatch — the `--workers N` / `--listen` /
/// `--connect` implementation (docs/CAMPAIGNS.md §Distributed runs).
///
/// CampaignDispatcher farms every campaign batch to N worker slots.  A
/// runner sees each batch type-erased (BatchRunner::Batch: evaluate a
/// slice into sinks, parse-and-deliver one row line), so analytic and
/// simulation batches take the same one run_batch.  Per batch the
/// parent sends each slot the batch's `jsonl_meta` header plus a
/// `{"slice":[lo,hi]}` assignment;
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
#include <functional>
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
  /// One batch with its scenario kind erased: all a runner needs.
  struct Batch {
    /// View `batch` (of either kind); evaluation runs on `eng`.  Both
    /// must outlive the view.
    template <class Scen>
    Batch(Engine& eng, const std::vector<Scen>& batch);

    std::size_t size = 0;
    /// Evaluate rows [lo, hi) in this process, streaming them to `sinks`
    /// (Engine::run_stream over the slice); returns the delivered count.
    std::function<std::size_t(std::size_t lo, std::size_t hi,
                              const std::vector<ResultSink*>& sinks,
                              const StreamOptions& opts)>
        evaluate;
    /// Parse one journal row line of this batch's kind and deliver it to
    /// `sinks`.  False, delivering nothing, when the line fails the
    /// round-trip check or is not row `index`.
    std::function<bool(const std::string& line, std::size_t index,
                       const std::vector<ResultSink*>& sinks)>
        deliver;
  };

  virtual ~BatchRunner() = default;
  virtual std::size_t run_batch(const BatchMeta& m, const Batch& batch,
                                const std::vector<ResultSink*>& sinks,
                                const StreamOptions& opts) = 0;
};

template <class Scen>
BatchRunner::Batch::Batch(Engine& eng, const std::vector<Scen>& batch)
    : size(batch.size()),
      evaluate([&eng, &batch](std::size_t lo, std::size_t hi,
                              const std::vector<ResultSink*>& sinks,
                              const StreamOptions& opts) {
        return eng.run_stream(
            std::vector<Scen>(batch.begin() + static_cast<std::ptrdiff_t>(lo),
                              batch.begin() + static_cast<std::ptrdiff_t>(hi)),
            sinks, opts);
      }),
      deliver([](const std::string& line, std::size_t index,
                 const std::vector<ResultSink*>& sinks) {
        const auto r = ScenarioKind<Scen>::parse(line);
        if (!r || r->index != index) return false;
        for (auto* s : sinks) s->consume(*r);
        return true;
      }) {}

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

  std::size_t run_batch(const BatchMeta& m, const Batch& batch,
                        const std::vector<ResultSink*>& sinks,
                        const StreamOptions& opts) override;

 private:
  struct Slot {
    std::size_t cursor = 0;  ///< next batch index this slot will report
    std::size_t hi = 0;      ///< end of its slice
  };
  struct BatchRecord {  ///< completed batch, for catching up joiners
    std::string meta_line;          // jsonl_meta(m), unterminated
    std::vector<std::string> rows;  // n jsonl_row lines, unterminated
  };

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

  std::size_t run_batch(const BatchMeta& m, const Batch& batch,
                        const std::vector<ResultSink*>& sinks,
                        const StreamOptions& opts) override;

 private:
  [[noreturn]] void stream_ended();  ///< fleet stop (75) or lost link (76)

  std::unique_ptr<SocketChannel> channel_;
};

}  // namespace sfly::engine
