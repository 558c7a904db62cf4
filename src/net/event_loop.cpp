#include "net/event_loop.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <system_error>
#include <unistd.h>

namespace noodle::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

EventLoop::EventLoop() {
  epoll_.reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_) throw_errno("EventLoop: epoll_create1");
  wakeup_.reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wakeup_) throw_errno("EventLoop: eventfd");
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wakeup_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.get(), &event) != 0) {
    throw_errno("EventLoop: epoll_ctl(wakeup)");
  }
  wheel_epoch_ = std::chrono::steady_clock::now();
}

EventLoop::~EventLoop() = default;

void EventLoop::add(int fd, std::uint32_t events, IoCallback callback) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
    // Regular files and some devices (/dev/null) have no wait queue to
    // sleep on: they never block, so they are always ready.
    if (errno != EPERM) throw_errno("EventLoop: epoll_ctl(add)");
    always_ready_[fd] = events;
  }
  io_callbacks_[fd] = std::move(callback);
}

void EventLoop::modify(int fd, std::uint32_t events) {
  if (!always_ready_.empty()) {
    const auto it = always_ready_.find(fd);
    if (it != always_ready_.end()) {
      it->second = events;
      return;
    }
  }
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &event) != 0) {
    throw_errno("EventLoop: epoll_ctl(mod)");
  }
}

void EventLoop::remove(int fd) {
  // The fd may already be closed by the caller; EBADF/ENOENT are then fine.
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  io_callbacks_.erase(fd);
  always_ready_.erase(fd);
  removed_this_round_.push_back(fd);
}

EventLoop::TimerId EventLoop::add_timer(std::chrono::milliseconds delay,
                                        std::function<void()> callback) {
  const auto now = std::chrono::steady_clock::now();
  // An empty wheel stops advancing: restart its clock here rather than
  // replay the idle gap tick by tick.
  if (timers_.empty()) wheel_epoch_ = now;
  // Count ticks from the last processed one, which a sleeping wheel may
  // have left behind `now`, and round UP: a timer must never fire before
  // its delay.
  const auto due = std::chrono::duration_cast<std::chrono::nanoseconds>(
      now - wheel_epoch_ + delay);
  const std::uint64_t ticks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>((due + kTick - std::chrono::nanoseconds(1)) / kTick));
  const TimerId id = next_timer_id_++;
  Timer timer;
  timer.callback = std::move(callback);
  timer.slot = (current_slot_ + ticks) % kWheelSlots;
  // The slot first comes round after ticks % kWheelSlots ticks, or after a
  // full revolution when that is 0.
  timer.rounds = (ticks - 1) / kWheelSlots;
  park(id, timer.slot);
  timers_.emplace(id, std::move(timer));
  return id;
}

void EventLoop::park(TimerId id, std::size_t slot) {
  wheel_[slot].push_back(id);
  occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
}

void EventLoop::cancel_timer(TimerId id) {
  const auto it = timers_.find(id);
  if (it == timers_.end()) return;
  // A slot being fired has already been swapped out of the wheel; its
  // remaining ids are skipped once they are gone from timers_.
  std::vector<TimerId>& slot = wheel_[it->second.slot];
  const auto pos = std::find(slot.begin(), slot.end(), id);
  if (pos != slot.end()) slot.erase(pos);
  if (slot.empty()) {
    occupied_[it->second.slot / 64] &= ~(std::uint64_t{1} << (it->second.slot % 64));
  }
  timers_.erase(it);
}

std::size_t EventLoop::ticks_to_next_timer() const noexcept {
  const std::size_t start = (current_slot_ + 1) % kWheelSlots;
  const std::size_t first_word = start / 64;
  const std::uint64_t from_start = ~std::uint64_t{0} << (start % 64);
  // The start word's bits from `start` up, the other words in ring order,
  // then the start word's bits below `start`.
  for (std::size_t i = 0; i <= kMaskWords; ++i) {
    const std::size_t word = (first_word + i) % kMaskWords;
    std::uint64_t bits = occupied_[word];
    if (i == 0) bits &= from_start;
    if (i == kMaskWords) bits &= ~from_start;
    if (bits != 0) {
      const std::size_t slot = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return (slot + kWheelSlots - start) % kWheelSlots + 1;
    }
  }
  return kWheelSlots;
}

void EventLoop::watch_signal(int signo, std::function<void(int)> callback) {
  SignalPipe& pipe = SignalPipe::instance();
  pipe.hook(signo);
  signal_callbacks_[signo] = std::move(callback);
  if (!signal_fd_added_ && pipe.read_fd() >= 0) {
    add(pipe.read_fd(), EPOLLIN, [this](std::uint32_t) {
      SignalPipe::instance().drain([this](int signo) {
        const auto it = signal_callbacks_.find(signo);
        if (it != signal_callbacks_.end()) it->second(signo);
      });
    });
    signal_fd_added_ = true;
  }
}

void EventLoop::post(std::function<void()> task) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    first = posted_.empty();
    posted_.push_back(std::move(task));
  }
  // One doorbell per batch of posts: a non-empty queue already has a write
  // pending that drain_posted() has not answered yet (it empties the queue
  // only after run() has read the eventfd), and it drains every task.
  if (!first) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t ignored = ::write(wakeup_.get(), &one, sizeof one);
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t ignored = ::write(wakeup_.get(), &one, sizeof one);
}

void EventLoop::drain_posted() {
  // Swap out the whole queue so tasks posted BY a task run next round —
  // never recursively, and never starving I/O forever.
  std::deque<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

int EventLoop::poll_timeout_ms() const {
  for (const auto& [fd, events] : always_ready_) {
    if (events != 0) return 0;  // an always-ready fd has work now
  }
  if (timers_.empty()) return -1;  // block until I/O, post, or signal
  // Sleep until the next slot holding a timer, not the next tick: a loop
  // whose only timer is a 30 s watchdog wakes once per revolution.
  const auto next_tick =
      wheel_epoch_ + kTick * static_cast<std::int64_t>(ticks_to_next_timer());
  const auto now = std::chrono::steady_clock::now();
  if (next_tick <= now) return 0;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(next_tick - now);
  return static_cast<int>(left.count()) + 1;  // +1: never wake a hair early
}

void EventLoop::advance_wheel() {
  if (timers_.empty()) {
    wheel_epoch_ = std::chrono::steady_clock::now();
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  while (now - wheel_epoch_ >= kTick) {
    wheel_epoch_ += kTick;
    current_slot_ = (current_slot_ + 1) % kWheelSlots;
    const std::uint64_t bit = std::uint64_t{1} << (current_slot_ % 64);
    if ((occupied_[current_slot_ / 64] & bit) == 0) continue;
    // Fire this slot. Entries are collected first: a callback may arm new
    // timers (even into this same slot — they belong to the NEXT
    // revolution and must not fire now).
    std::vector<TimerId> due;
    due.swap(wheel_[current_slot_]);
    occupied_[current_slot_ / 64] &= ~bit;
    for (const TimerId id : due) {
      const auto it = timers_.find(id);
      if (it == timers_.end()) continue;  // cancelled by an earlier callback
      if (it->second.rounds > 0) {
        --it->second.rounds;
        park(id, current_slot_);  // another revolution
        continue;
      }
      auto callback = std::move(it->second.callback);
      timers_.erase(it);
      callback();
    }
    if (timers_.empty()) {
      // Nothing left to pace; resynchronise so a long idle gap does not
      // replay thousands of empty ticks later.
      wheel_epoch_ = std::chrono::steady_clock::now();
      return;
    }
  }
}

void EventLoop::run_always_ready() {
  // Callbacks may add, modify or remove fds: collect first, look up again.
  std::vector<int> due;
  for (const auto& [fd, events] : always_ready_) {
    if (events != 0) due.push_back(fd);
  }
  for (const int fd : due) {
    const auto it = always_ready_.find(fd);
    if (it != always_ready_.end() && it->second != 0) io_callbacks_.at(fd)(it->second);
  }
}

void EventLoop::run() {
  running_ = true;
  stop_.store(false, std::memory_order_release);
  std::vector<epoll_event> events(64);
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_.get(), events.data(),
                               static_cast<int>(events.size()), poll_timeout_ms());
    if (n < 0 && errno != EINTR) throw_errno("EventLoop: epoll_wait");
    removed_this_round_.clear();
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == wakeup_.get()) {
        std::uint64_t counter = 0;
        [[maybe_unused]] const ssize_t ignored =
            ::read(wakeup_.get(), &counter, sizeof counter);
        continue;
      }
      // A handler earlier in this round may have closed this fd; its
      // number could even be reused by a brand-new connection, whose
      // callback must not run on the stale event.
      if (std::find(removed_this_round_.begin(), removed_this_round_.end(), fd) !=
          removed_this_round_.end()) {
        continue;
      }
      const auto it = io_callbacks_.find(fd);
      if (it == io_callbacks_.end()) continue;
      it->second(events[static_cast<std::size_t>(i)].events);
    }
    if (!always_ready_.empty()) run_always_ready();
    drain_posted();
    advance_wheel();
    if (n == static_cast<int>(events.size())) events.resize(events.size() * 2);
  }
  drain_posted();  // anything posted between the last round and stop()
  running_ = false;
}

}  // namespace noodle::net
