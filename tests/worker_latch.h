#pragma once
// WorkerLatch — holds serve::DetectionService workers at the "serve.batch"
// fault point, after a worker has taken a batch off the request queue and
// before the batch's pickup time is stamped, until release(). Work submitted
// meanwhile stays queued and in flight, the way it does behind a busy
// worker. Declare the latch before the service, so the armed injector
// outlives the worker threads that visit it.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/fault_injector.h"

namespace noodle {

class WorkerLatch {
 public:
  WorkerLatch() {
    faults_.crash_point("serve.batch", [this] {
      std::unique_lock<std::mutex> lock(mutex_);
      // Bounded, so a test that fails before release() cannot hang the
      // service's destructor.
      released_cv_.wait_for(lock, std::chrono::seconds(10), [this] { return released_; });
    });
  }
  WorkerLatch(const WorkerLatch&) = delete;
  WorkerLatch& operator=(const WorkerLatch&) = delete;

  /// True once workers have reached the latch `batches` times (false after
  /// 10 s without).
  bool wait_held(std::uint64_t batches = 1) const {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (faults_.hits("serve.batch") < batches) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  /// Lets every held worker, and every later batch, through.
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    released_cv_.notify_all();
  }

 private:
  util::FaultInjector faults_;
  util::FaultInjector::Arm armed_{faults_};
  std::mutex mutex_;
  std::condition_variable released_cv_;
  bool released_ = false;
};

}  // namespace noodle
