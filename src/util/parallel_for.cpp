#include "util/parallel_for.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace noodle::util {

namespace {

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

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
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (std::size_t t = 0; t + 1 < workers; ++t) helpers.emplace_back(drain);
    drain();  // the calling thread participates
  }  // the helpers join here

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace noodle::util
