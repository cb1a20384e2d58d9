#pragma once
// One pass of a campaign workload over a batch, two ways:
//
//  - untraced: Engine::run_stream / run_sims_stream with a JsonlSink, as a
//    bench's --json run does (the timed path);
//  - traced: the same scenarios evaluated by a workload-supplied function
//    that calls the public steps Engine::evaluate / evaluate_sim call,
//    under spans, on a TaskPool of the same width, with the rows delivered
//    in batch order to the same JsonlSink.
//
// Both passes digest the journal bytes, so a traced pass proves it did the
// same work as the untraced one by matching its digest.

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "engine/sink.hpp"
#include "util/parallel.hpp"

namespace perfbench {

/// Totals over the rounds of one pass.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = fnv1a(nullptr, 0);
  std::size_t bytes = 0;
  std::size_t rows = 0;
  std::vector<Window> rounds;  ///< one window per round
};

/// A JSONL journal written to memory (open_memstream), so disk speed never
/// enters a measurement.
class MemJournal {
 public:
  MemJournal() : f_(::open_memstream(&buf_, &len_)) {
    if (!f_) throw std::runtime_error("open_memstream failed");
  }
  ~MemJournal() {
    if (f_) std::fclose(f_);
    std::free(buf_);
  }
  MemJournal(const MemJournal&) = delete;
  MemJournal& operator=(const MemJournal&) = delete;

  [[nodiscard]] std::FILE* file() const { return f_; }
  /// Close the stream and fold its bytes into the pass digest.
  void finish(Pass& p) {
    std::fclose(f_);
    f_ = nullptr;
    p.digest = fnv1a(buf_, len_, p.digest);
    p.bytes += len_;
  }

 private:
  char* buf_ = nullptr;
  std::size_t len_ = 0;
  std::FILE* f_;
};

template <class Scen, class Res>
void untraced_pass(sfly::engine::Engine& eng, const std::vector<Scen>& batch,
                   Pass& p, std::vector<Res>& rows) {
  MemJournal journal;
  sfly::engine::JsonlSink jsonl(journal.file());
  sfly::engine::CollectSink collect(&rows);
  const double t0 = now_s(), c0 = cpu_s();
  if constexpr (std::is_same_v<Scen, sfly::engine::SimScenario>)
    (void)eng.run_sims_stream(batch, {&jsonl, &collect});
  else
    (void)eng.run_stream(batch, {&jsonl, &collect});
  const double wall = now_s() - t0, cpu = cpu_s() - c0;
  p.wall_s += wall;
  p.cpu_s += cpu;
  p.rounds.push_back({static_cast<double>(batch.size()), wall, cpu});
  p.rows += batch.size();
  journal.finish(p);
}

template <class Scen, class Res, class Eval>
void traced_pass(unsigned width, const std::vector<Scen>& batch, Eval&& eval,
                 Pass& p, std::vector<Res>& rows) {
  MemJournal journal;
  sfly::engine::JsonlSink jsonl(journal.file());
  const std::size_t n = batch.size();
  std::vector<Res> done_rows(n);
  std::vector<char> done(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  const double t0 = now_s(), c0 = cpu_s();
  {
    sfly::TaskPool pool(width);
    for (std::size_t i = 0; i < n; ++i)
      pool.submit([&, i] {
        // As in Engine::stream_batch: a throwing evaluation becomes an
        // ok=false row, so the delivery loop below never waits forever on
        // a hole and the row counts as failed.
        Res r;
        try {
          r = eval(batch[i], i);
        } catch (const std::exception& e) {
          r.index = i;
          r.error = e.what();
        } catch (...) {
          r.index = i;
          r.error = "unknown evaluation failure";
        }
        std::lock_guard lock(mu);
        done_rows[i] = std::move(r);
        done[i] = 1;
        cv.notify_all();
      });
    jsonl.begin(n);
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return done[i] != 0; });
      }
      Scope sink("engine.sink", i);
      jsonl.consume(done_rows[i]);
    }
    pool.wait();
  }
  jsonl.end();
  const double wall = now_s() - t0, cpu = cpu_s() - c0;
  p.wall_s += wall;
  p.cpu_s += cpu;
  p.rounds.push_back({static_cast<double>(n), wall, cpu});
  p.rows += n;
  journal.finish(p);
  for (auto& r : done_rows) rows.push_back(std::move(r));
}

}  // namespace perfbench
