#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <stdexcept>

namespace noodle::util {

namespace {

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = threads == 0 ? default_thread_count() : threads;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) throw std::runtime_error("ThreadPool::submit: pool is shut down");
    queue_.push(std::move(task));
  }
  work_available_.notify_one();
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t ThreadPool::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

std::size_t resolve_thread_count(std::size_t requested, std::size_t work_items) {
  std::size_t threads = requested == 0 ? default_thread_count() : requested;
  if (work_items > 0 && threads > work_items) threads = work_items;
  return threads == 0 ? 1 : threads;
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t workers = resolve_thread_count(threads, count);
  if (workers <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto drain = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  {
    ThreadPool pool(workers - 1);
    for (std::size_t t = 0; t + 1 < workers; ++t) pool.submit(drain);
    drain();  // the calling thread participates
    pool.wait_idle();
  }

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace noodle::util
