#pragma once
// Parallel-execution utilities: the library's one thread runtime.
//
// TaskPool is a small fixed-width thread pool built on std::thread; its
// width (--threads, EngineConfig::threads) bounds every worker thread the
// library starts.  A pool of width <= 1 executes tasks inline at submit
// time, which makes serial and parallel runs of independent,
// explicitly-seeded tasks bitwise identical.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <latch>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace sfly {

inline int hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n ? static_cast<int>(n) : 1;
}

/// Fixed-width FIFO task pool.  Tasks must be independent; submission order
/// is preserved in the queue but completion order is unspecified.  In
/// inline mode (width <= 1) submit() behaves like a plain function call: a
/// throwing task propagates at the submit site.  With workers, the first
/// task exception is captured and rethrown from wait(); destroying a pool
/// without calling wait() discards a pending exception (debug builds print
/// a diagnostic so the discard is never silent during development).
class TaskPool {
 public:
  /// width 0 selects hardware_threads(); width <= 1 runs tasks inline.
  explicit TaskPool(unsigned width = 0) {
    if (width == 0) width = static_cast<unsigned>(hardware_threads());
    if (width <= 1) return;  // inline mode: no workers
    workers_.reserve(width);
    for (unsigned i = 0; i < width; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  ~TaskPool() {
    {
      std::unique_lock lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
#ifndef NDEBUG
    if (error_)
      std::fprintf(stderr,
                   "TaskPool: destroyed with an unreported task exception "
                   "(wait() was never called)\n");
#endif
  }

  [[nodiscard]] unsigned width() const {
    return workers_.empty() ? 1 : static_cast<unsigned>(workers_.size());
  }

  void submit(std::function<void()> task) {
    if (workers_.empty()) {
      // Inline mode is the "serial behaves like plain function calls"
      // mode: no deferral, so no capture — the exception surfaces here,
      // at the call site, exactly as if the caller had invoked task().
      task();
      return;
    }
    {
      std::unique_lock lock(mu_);
      queue_.push_back(std::move(task));
      ++pending_;
    }
    cv_.notify_one();
  }

  /// Block until every submitted task has finished; rethrows the first
  /// captured task exception.
  void wait() {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    if (error_) {
      auto e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

  /// Run fn(lo, hi) over [0, n) in chunks of `grain` indices, whose bounds
  /// never depend on the pool width; a non-void fn's results come back in
  /// chunk order, so reducing them in that order gives the same bits at
  /// any width.  Runs in order on the caller without a pool, at width 1,
  /// or on one of pool's own workers (where blocking could deadlock).
  /// Rethrows the lowest throwing chunk's exception.
  template <typename F>
  static auto parallel_for(TaskPool* pool, std::size_t n, std::size_t grain,
                           F&& fn) {
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t chunks = (n + grain - 1) / grain;
    auto chunk = [&](std::size_t c) {
      return fn(c * grain, std::min(n, (c + 1) * grain));
    };
    if (pool && (pool->workers_.empty() || current_pool_ == pool))
      pool = nullptr;
    if constexpr (std::is_void_v<decltype(chunk(0))>) {
      run_chunks(pool, chunks, chunk);
    } else {
      static_assert(!std::is_same_v<decltype(chunk(0)), bool>,
                    "vector<bool> slots share bytes across chunks");
      std::vector<decltype(chunk(0))> out(chunks);
      run_chunks(pool, chunks, [&](std::size_t c) { out[c] = chunk(c); });
      return out;
    }
  }

 private:
  // The caller and up to width - 1 helper tasks claim chunks off a shared
  // counter, so the caller starts at once instead of waiting for workers.
  static void run_chunks(TaskPool* pool, std::size_t chunks,
                         const std::function<void(std::size_t)>& body) {
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(chunks);
    auto drain = [&] {
      for (std::size_t c; (c = next.fetch_add(1)) < chunks;) {
        try {
          body(c);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      }
    };
    const std::size_t helpers =
        pool && chunks > 1 ? std::min(chunks, pool->workers_.size()) - 1 : 0;
    std::latch done(static_cast<std::ptrdiff_t>(helpers));
    for (std::size_t h = 0; h < helpers; ++h)
      pool->submit([&] {
        drain();
        done.count_down();
      });
    drain();
    done.wait();
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }

  void run_one(const std::function<void()>& task) {
    try {
      task();
    } catch (...) {
      std::unique_lock lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }

  void worker_loop() {
    current_pool_ = this;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      run_one(task);
      {
        std::unique_lock lock(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  // The pool whose worker_loop the calling thread runs (null elsewhere).
  static inline thread_local const TaskPool* current_pool_ = nullptr;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_, done_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::exception_ptr error_;
};

}  // namespace sfly
