#include "engine/dispatch.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "engine/journal.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/parse.hpp"

namespace sfly::engine {

namespace dispatch_detail {

std::optional<std::size_t> row_index(const std::string& line) {
  static constexpr std::string_view kPrefix = "{\"index\":";
  if (!line.starts_with(kPrefix)) return std::nullopt;
  const std::string_view rest = std::string_view(line).substr(kPrefix.size());
  return parse_uint<std::size_t>(
      rest.substr(0, rest.find_first_not_of("0123456789")));
}

}  // namespace dispatch_detail

namespace {

std::string slice_line(std::size_t lo, std::size_t hi) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"slice\":[%zu,%zu]}", lo, hi);
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

}  // namespace

// --- CampaignDispatcher (parent) -------------------------------------------

CampaignDispatcher::CampaignDispatcher(Config cfg)
    : transport_(std::move(cfg)), slots_(transport_.width()) {}

CampaignDispatcher::~CampaignDispatcher() = default;  // BYE via transport_

void CampaignDispatcher::catch_up(std::size_t slot) {
  // Replay the completed-batch history through the normal protocol with
  // empty slices: the fresh worker's campaign logic consumes each batch
  // like a --resume replay, reconstructing the in-memory state (and any
  // adaptive schedule) every other process already holds.
  for (const auto& rec : history_) {
    transport_.send(slot, rec.meta_line);
    transport_.send(slot, slice_line(0, 0));
    for (const auto& row : rec.rows) transport_.send(slot, row);
  }
}

std::size_t CampaignDispatcher::run_batch(const BatchMeta& m,
                                          const Batch& batch,
                                          const std::vector<ResultSink*>& sinks,
                                          const StreamOptions& opts) {
  const std::size_t n = batch.size;
  for (auto* s : sinks) s->begin(n);
  if (n == 0 || fleet_stopped_) {
    // Fleet already budget-stopped: deliver nothing so the campaign
    // records the stop and exits 75 (resumable single-process).
    for (auto* s : sinks) s->end();
    return 0;
  }

  const std::size_t W = transport_.width();
  std::string meta_line = jsonl_meta(m);
  meta_line.pop_back();  // one unterminated line per frame
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

  auto assign = [&](std::size_t wi) {
    transport_.send(wi, meta_line);
    transport_.send(wi, slice_line(slots_[wi].cursor, slots_[wi].hi));
  };
  TcpTransport::Hooks hooks;
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
    transport_.note_row(wi);
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
    assign(wi);
  };
  // The parent's own budget or a SIGTERM also ends the wait for joins.
  hooks.stop_waiting = [&] {
    return !err.empty() || fleet_stopped_ ||
           (opts.stop_after && opts.stop_after());
  };

  if (!started_) {
    started_ = true;
    transport_.start(hooks);
  } else {
    for (std::size_t wi = 0; wi < W; ++wi) {
      if (transport_.up(wi))
        assign(wi);
      else  // died at the broadcast of an earlier batch; on_join assigns
        transport_.replace(wi, hooks);
    }
  }

  auto deliver_ready = [&] {
    while (next < n && have[next]) {
      if (!batch.deliver(rows[next], opts.index_base + next, sinks)) {
        transport_.shutdown();
        throw std::runtime_error(
            "--workers: row " + std::to_string(next) + " of batch '" +
            m.batch +
            "' failed the journal round-trip check — wire corruption or a "
            "worker/parent serialization mismatch");
      }
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
    if (fleet_stopped_ && !transport_.up(owner_of(next))) break;
    if (!fleet_stopped_ && opts.stop_after && opts.stop_after())
      fleet_stopped_ = true;  // parent budget: workers stop themselves

    // Only a --listen fleet can sit with every slot empty: local slots
    // respawn inside replace().
    bool any_up = false;
    for (std::size_t wi = 0; wi < W && !any_up; ++wi)
      any_up = transport_.up(wi);
    if (!any_up && !fleet_stopped_) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_wait_notice > std::chrono::seconds(10)) {
        last_wait_notice = now;
        std::fprintf(stderr,
                     "# --listen: no workers connected; %zu row(s) pending — "
                     "waiting for --connect joins\n",
                     n - next);
      }
    }

    transport_.pump(500, hooks);
    if (!err.empty()) {
      transport_.shutdown();
      throw std::runtime_error("--workers: " + err);
    }

    // Lease expiry: a slot that owes rows but has not been heard for a
    // full lease is stopped, partitioned or wedged.  Replace it (a local
    // worker is killed and respawned; a remote epoch is fenced, so its
    // late rows become countable zombies, never deliveries) — the same
    // complete-rows-kept / torn-tail-dropped path a death takes.
    const double lease = transport_.lease_seconds();
    if (!fleet_stopped_) {
      for (std::size_t wi = 0; wi < W; ++wi) {
        Slot& s = slots_[wi];
        if (!transport_.up(wi) || s.cursor >= s.hi) continue;
        const double idle = transport_.idle_seconds(wi);
        if (idle <= lease) continue;
        std::fprintf(stderr,
                     "# --workers: worker slot %zu lease expired (idle %.1fs "
                     "> %.1fs) — replacing it; rows %zu..%zu will be "
                     "reassigned\n",
                     wi, idle, lease, s.cursor, s.hi);
        transport_.replace(wi, hooks);
      }
    }

    // Bring up replacements for down slots that still owe rows.
    if (!fleet_stopped_) {
      for (std::size_t wi = 0; wi < W; ++wi) {
        if (!transport_.up(wi) && slots_[wi].cursor < slots_[wi].hi)
          transport_.replace(wi, hooks);
      }
    }
  }
  deliver_ready();
  for (auto* s : sinks) s->end();
  if (zombie_rows > 0)
    std::fprintf(stderr,
                 "# --workers: discarded %zu late row(s) from fenced worker "
                 "epoch(s) — each was re-evaluated and delivered exactly "
                 "once by the lease holder\n",
                 zombie_rows);

  if (next == n) {
    // Batch complete: record it and broadcast the full row set, so every
    // worker replays it and all processes' downstream state (report
    // collections, adaptive wave schedules) stays bitwise identical.
    for (std::size_t wi = 0; wi < W; ++wi)
      if (transport_.up(wi))
        for (const auto& row : rows) transport_.send(wi, row);
    history_.push_back({std::move(meta_line), std::move(rows)});
  }
  return next;
}

// --- CampaignWorker (the --worker-fd / --connect process) ------------------

CampaignWorker::CampaignWorker(std::unique_ptr<SocketChannel> channel)
    : channel_(std::move(channel)) {}

CampaignWorker::~CampaignWorker() = default;

void CampaignWorker::stream_ended() {
  if (channel_->graceful_end()) {
    // Fleet shutdown (BYE): exit EX_TEMPFAIL, which the parent treats
    // as a graceful stop, never a death.
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

// Streams each freshly evaluated row straight to the parent, one frame
// per row: a kill mid-scenario costs the fleet at most one torn frame.
class ChannelRowSink final : public ResultSink {
 public:
  explicit ChannelRowSink(SocketChannel& ch) : ch_(ch) {}
  void consume(const Result& r) override { send(jsonl_row(r)); }
  void consume(const SimResult& r) override { send(jsonl_row(r)); }
  [[nodiscard]] bool wants_replay() const override { return false; }

 private:
  void send(const std::string& row) {  // jsonl_row is '\n'-terminated
    ch_.write_line(std::string_view(row).substr(0, row.size() - 1));
  }
  SocketChannel& ch_;
};

}  // namespace

std::size_t CampaignWorker::run_batch(const BatchMeta& m, const Batch& batch,
                                      const std::vector<ResultSink*>& sinks,
                                      const StreamOptions& opts) {
  const std::size_t n = batch.size;
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
        "}");
    std::exit(2);
  }

  if (!channel_->read_line(line)) stream_ended();
  std::size_t lo = 0, hi = 0;
  if (!parse_slice(line, lo, hi) || lo > hi || hi > n)
    throw std::runtime_error("worker: malformed slice assignment '" + line +
                             "'");

  ChannelRowSink row_sink(*channel_);
  StreamOptions so;
  so.index_base = opts.index_base + lo;
  so.stop_after = opts.stop_after;
  if (batch.evaluate(lo, hi, {&row_sink}, so) < hi - lo) {
    // own budget fired mid-slice
    channel_->announce_stop();
    std::exit(75);
  }

  // Batch broadcast: all n rows come back (including this worker's own).
  // Feeding them to the campaign's sinks keeps every process's collected
  // results — and any schedule derived from them — bitwise identical.
  for (std::size_t i = 0; i < n; ++i) {
    if (!channel_->read_line(line)) stream_ended();
    if (!batch.deliver(line, opts.index_base + i, sinks))
      throw std::runtime_error(
          "worker: broadcast row " + std::to_string(i) + " of batch '" +
          m.batch + "' failed the journal round-trip check");
  }
  for (auto* s : sinks) s->end();
  return n;
}

}  // namespace sfly::engine
