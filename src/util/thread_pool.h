#pragma once
// Minimal work-queue thread pool for the batch/parallel subsystem.
//
// Design rules that keep parallel results bit-identical to serial runs:
//   * the pool never owns randomness — every task derives its own
//     util::Rng from its config seed, so scheduling order is irrelevant;
//   * parallel_for writes results by index, never by completion order;
//   * a requested size of 1 (or a single-item range) runs inline on the
//     calling thread, so the serial baseline has zero threading overhead.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace noodle::util {

/// Fixed-size worker pool draining a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Throws std::runtime_error after shutdown began.
  /// Tasks must not throw (an escaping exception terminates the process, as
  /// with any thread entry); parallel_for wraps user functions accordingly.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks queued but not yet claimed by a worker.
  std::size_t queue_depth() const;
  /// Tasks currently executing.
  std::size_t in_flight() const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// Resolves a requested thread count: 0 -> hardware_concurrency, and never
/// more threads than items of work.
std::size_t resolve_thread_count(std::size_t requested, std::size_t work_items);

/// Runs fn(0) .. fn(count - 1), each index exactly once, across `threads`
/// workers (0 = hardware_concurrency). Indices are claimed from an atomic
/// counter, so work stays balanced even when task durations vary. Blocks
/// until every index finished. The first exception thrown by any task is
/// rethrown on the calling thread after all workers stop claiming new work.
/// With threads <= 1 or count <= 1 the loop runs inline, in index order.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace noodle::util
