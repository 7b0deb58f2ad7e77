// FIFO thread pool used by the GPU execution model's kernel launcher.
//
// Scan progress does not rest on the queue order. The launcher hands a
// grid's tiles out one at a time, in index order, from a per-launch counter,
// and a worker only claims a tile it runs at once; so every tile a
// decoupled-lookback tile (paper Sec. IV-C) waits on is already running —
// the forward-progress guarantee real GPU hardware gives the algorithm.
// FIFO order only keeps concurrent launches from starving one another.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace cuszp2 {

class ThreadPool {
 public:
  /// Creates `workers` worker threads (>= 1 enforced).
  explicit ThreadPool(usize workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks are started in submission order.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait();

  /// Runs fn(0), ..., fn(tasks - 1) on the pool and returns once all of
  /// them have finished, waiting only on these tasks (callers sharing the
  /// pool do not serialize on each other's work). Called from one of this
  /// pool's own workers, it runs them in order on the calling thread
  /// instead: queueing behind the caller could deadlock. `fn` must not
  /// throw.
  void run(usize tasks, const std::function<void(usize)>& fn);

  usize workerCount() const { return threads_.size(); }

  /// Reasonable default worker count for this host: at least 2 so that
  /// inter-block spin/wait protocols are exercised with real concurrency
  /// even on single-core CI machines. A `CUSZP2_WORKERS` environment
  /// variable overrides the hardware-derived value (clamped to [1, 64]).
  /// An explicit request of 1 is honoured: every spin protocol in the
  /// tree waits only on *earlier* tiles, so one worker makes progress —
  /// and runs tiles in order, which makes the observed sync telemetry
  /// (lookback depth, wait spins) scheduling-independent. The modelled
  /// metrics do not depend on the worker count (the timing model charges
  /// the serial lookback depth), so no harness needs this pin.
  static usize defaultWorkers();

  /// Sentinel returned by currentWorkerIndex() on non-pool threads.
  static constexpr usize kNotAWorker = static_cast<usize>(-1);

  /// Index of the calling thread within the pool that owns it, or
  /// kNotAWorker when called from a thread no pool owns. Lets per-call
  /// scratch be pre-partitioned into one slot per worker.
  static usize currentWorkerIndex();

  /// The pool that owns the calling thread, or nullptr. Used by the
  /// launcher to detect nested launches onto the caller's own pool.
  static ThreadPool* currentPool();

 private:
  void workerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cvTask_;
  std::condition_variable cvDone_;
  usize inFlight_ = 0;
  bool stop_ = false;
};

}  // namespace cuszp2
