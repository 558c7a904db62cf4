#pragma once
// net::EventLoop — the single-threaded epoll reactor under noodled's socket
// front end. One thread owns every connection, so per-connection state
// needs no locks; the only cross-thread doors in are post() (a wakeup-fd
// guarded task queue — how DetectionService completion callbacks marshal
// verdicts back from service workers without the loop ever blocking on
// inference) and stop().
//
// Three event sources fan into the same epoll_wait:
//
//   * I/O — add()/modify()/remove() register level-triggered fd callbacks.
//     An fd that epoll refuses (a regular file, /dev/null) counts as always
//     ready for what it asks, as poll(2) has it: its callback runs every
//     round until modify() clears its interest or remove() forgets it;
//   * timers — a hashed timer wheel (fixed tick, slot ring, rounds counter)
//     drives watchdogs and deadlines: arming is O(1), a tick touches only
//     its slot, and thousands of per-connection timers cost nothing while
//     idle (cf. ouinet's watch_dog, rebuilt reactor-native). An occupancy
//     bit per slot lets the loop sleep until the next slot that holds a
//     timer instead of waking every tick;
//   * signals — net::SignalPipe's read end is just another fd; hooked
//     signals surface as watch_signal() callbacks ON THE LOOP THREAD, so
//     SIGTERM-driven drain logic runs as ordinary code, not in a handler.
//
// Threading contract: run() owns the loop; add/modify/remove/add_timer/
// cancel_timer/watch_signal must be called on the loop thread (or before
// run() starts). post() and stop() are safe from any thread.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/socket.h"

namespace noodle::net {

class EventLoop {
 public:
  using IoCallback = std::function<void(std::uint32_t epoll_events)>;
  using TimerId = std::uint64_t;

  /// Throws std::system_error if epoll/eventfd plumbing cannot be built.
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- I/O (loop thread) ---------------------------------------------------

  /// Registers `fd` level-triggered for `events` (EPOLLIN/EPOLLOUT bits).
  /// The callback receives the ready event mask. An fd epoll refuses with
  /// EPERM is always ready: its callback gets `events` every round, and the
  /// loop does not sleep while it has any. Throws std::system_error.
  void add(int fd, std::uint32_t events, IoCallback callback);
  /// Changes the interest mask of a registered fd (0 = none).
  void modify(int fd, std::uint32_t events);
  /// Unregisters; safe to call for an fd about to be closed. Pending
  /// events already harvested for this fd in the current poll round are
  /// suppressed. A callback may remove its own fd, which destroys it: it
  /// must touch none of its captures afterwards.
  void remove(int fd);

  // --- timers (loop thread) ------------------------------------------------

  /// One-shot timer after `delay` (rounded UP to the wheel tick, so a
  /// timer never fires early). Returns an id for cancel_timer().
  TimerId add_timer(std::chrono::milliseconds delay, std::function<void()> callback);
  /// Cancels and frees the timer, and with it whatever its callback
  /// captured; a no-op for already-fired or unknown ids.
  void cancel_timer(TimerId id);
  /// Timers armed and not yet fired or cancelled.
  std::size_t timer_count() const noexcept { return timers_.size(); }

  /// The wheel granularity — the worst-case lateness a timer adds on an
  /// idle loop (busy loops add handler time like any reactor).
  static constexpr std::chrono::milliseconds kTick{5};

  // --- signals (loop thread) -----------------------------------------------

  /// Routes `signo` through the SignalPipe funnel into `callback` on the
  /// loop thread. One callback per signal; re-watching replaces it.
  void watch_signal(int signo, std::function<void(int)> callback);

  // --- cross-thread --------------------------------------------------------

  /// Enqueues `task` to run on the loop thread and wakes the loop. Safe
  /// from any thread, including the loop thread itself (runs next round —
  /// never recursively). Only a post into an empty queue writes the
  /// wake-up eventfd; later posts ride the same wake-up.
  void post(std::function<void()> task);

  /// Makes run() return once the current round's handlers finish. Safe
  /// from any thread.
  void stop();

  /// Processes events until stop(). Must be called by exactly one thread.
  void run();

  /// True while inside run() — handy for assertions and tests.
  bool running() const noexcept { return running_; }

 private:
  struct Timer {
    std::function<void()> callback;
    std::size_t slot = 0;
    std::uint64_t rounds = 0;  ///< full wheel revolutions still to wait
  };

  void advance_wheel();
  /// Runs the callback of every always-ready fd with a nonzero interest.
  void run_always_ready();
  void drain_posted();
  int poll_timeout_ms() const;
  /// Puts `id` into `slot` and marks the slot occupied.
  void park(TimerId id, std::size_t slot);
  /// Ticks from current_slot_ to the next occupied slot, in
  /// [1, kWheelSlots]; current_slot_ itself counts as a full revolution.
  std::size_t ticks_to_next_timer() const noexcept;

  Fd epoll_;
  Fd wakeup_;  ///< eventfd: post() doorbell

  std::unordered_map<int, IoCallback> io_callbacks_;
  /// The fds epoll refused, with their interest masks.
  std::unordered_map<int, std::uint32_t> always_ready_;
  std::unordered_map<int, std::function<void(int)>> signal_callbacks_;
  bool signal_fd_added_ = false;

  // Timer wheel: 512 slots x 5ms tick = 2.56s horizon per revolution;
  // longer delays park with a rounds counter. A slot holds exactly the ids
  // of its live timers, and its bit in occupied_ is set iff it holds any.
  // All loop-thread-only.
  static constexpr std::size_t kWheelSlots = 512;
  static constexpr std::size_t kMaskWords = kWheelSlots / 64;
  std::vector<std::vector<TimerId>> wheel_{kWheelSlots};
  std::array<std::uint64_t, kMaskWords> occupied_{};
  std::unordered_map<TimerId, Timer> timers_;
  TimerId next_timer_id_ = 1;
  std::size_t current_slot_ = 0;
  std::chrono::steady_clock::time_point wheel_epoch_;  ///< time of last tick

  std::mutex posted_mu_;
  std::deque<std::function<void()>> posted_;

  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::vector<int> removed_this_round_;  ///< suppress stale events after remove()
};

}  // namespace noodle::net
