// Fixed-size thread pool with deterministic fan-out helpers.
//
// The pool is the substrate for every parallel loop in GDDR (vectorised
// rollout collection, per-scenario evaluation, bench sweeps).  Design
// constraints, in order:
//
//  * Determinism.  parallel_for / parallel_map assign work by index and
//    collect results into index-addressed slots, so the *values* produced
//    are independent of thread interleaving; callers get bit-identical
//    output for any worker count as long as each task only touches its own
//    slot.  There is deliberately no work stealing — tasks are popped from
//    one FIFO queue, which keeps the execution model simple to reason
//    about and the determinism contract easy to audit.
//  * Inline degradation.  A pool of size <= 1 runs every task on the
//    calling thread at submit time, with no queue and no synchronisation,
//    so `--workers 1` exercises the exact serial code path.
//  * Exception transparency.  The first exception thrown by a task is
//    rethrown from the waiting parallel_for / parallel_map call.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace gddr::util {

class ThreadPool {
 public:
  // `num_threads` <= 1 creates an inline pool (no worker threads).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of worker threads (0 for an inline pool).
  int size() const { return static_cast<int>(workers_.size()); }

  // Schedules `task`; returns a future that completes when it ran (or
  // carries its exception).  Inline pools run the task immediately.
  std::future<void> submit(std::function<void()> task);

  // Tasks submitted over the pool's life; lets a caller check that work
  // actually reached the pool (parallel_for runs a pool of size <= 1
  // serially without submitting).
  std::uint64_t tasks_submitted() const {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  // True when a worker should wake: work to pop, or shutdown in progress.
  bool wake_ready_locked() const GDDR_REQUIRES(mutex_) {
    return stopping_ || !queue_.empty();
  }

  // Immutable after construction (workers never join or spawn mid-life),
  // so size() reads it without the lock.
  std::vector<std::thread> workers_;
  Mutex mutex_{LockRank::kThreadPool, "util/thread_pool"};
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ GDDR_GUARDED_BY(mutex_);
  bool stopping_ GDDR_GUARDED_BY(mutex_) = false;
  std::atomic<std::uint64_t> tasks_submitted_{0};
};

// Number of workers to use by default: the GDDR_WORKERS environment
// variable when set to a positive integer, else hardware_concurrency()
// (else 1 when even that is unknown).
int default_worker_count();

// Scans argv for "--workers N" (or "--workers=N"), removing the flag from
// argc/argv so command-specific parsing never sees it.  Returns N, or
// `default_worker_count()` when the flag is absent.  Throws
// std::invalid_argument on a malformed value.
int consume_workers_flag(int& argc, char** argv);

// Runs fn(i) for every i in [0, n).  Blocks until all iterations finished;
// rethrows the first exception.  `pool` may be null (serial execution).
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

// Maps fn over [0, n), collecting results in index order — the output is
// identical to the serial {fn(0), fn(1), ...} for any worker count.
template <typename Fn>
auto parallel_map(ThreadPool* pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace gddr::util
