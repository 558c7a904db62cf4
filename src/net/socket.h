#pragma once
// net::Fd + the socket syscall seam — every byte the transport moves goes
// through the checked_* wrappers here, which consult util::FaultInjector
// exactly the way util::AtomicFile does for disk I/O. That is what makes
// the PR-9 discipline portable to the network: a test scripts accept
// exhaustion, EAGAIN storms, short writes, or a mid-response ECONNRESET by
// name, and every error path in the event loop and server is exercised
// deterministically, without root, tc, or flaky timing.
//
// Fault points (all no-ops while no injector is armed — one relaxed load):
//
//   net.accept   accept4() on the listener        (EMFILE, ENFILE, ECONNABORTED)
//   net.read     read() on a connection           (EAGAIN, ECONNRESET, EIO)
//   net.write    send()/write() on a connection   (EAGAIN, ECONNRESET, EPIPE)
//                + short_write byte budgets: each write is clamped to the
//                  remaining budget, so partial-flush handling is testable
//
// All wrappers return exactly what the raw syscall would (-1 + errno), so
// callers cannot tell an injected failure from a real one — by design.

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <system_error>
#include <utility>

namespace noodle::net {

/// Move-only RAII file descriptor. Closing is best-effort (close errors at
/// destruction have no recovery); -1 means "empty".
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }

  int get() const noexcept { return fd_; }
  explicit operator bool() const noexcept { return fd_ >= 0; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

// --- fault-injected syscall wrappers ---------------------------------------

/// accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC)
/// behind the "net.accept" fault point; accepted sockets get TCP_NODELAY.
int checked_accept(int listen_fd) noexcept;

/// read(fd, buf, len) behind the "net.read" fault point. On a socket that
/// is recv(fd, buf, len, 0); unlike recv it also reads pipes and files.
ssize_t checked_read(int fd, void* buf, std::size_t len) noexcept;

/// send(fd, buf, len, MSG_NOSIGNAL) on a `socket`, so a reset peer never
/// raises SIGPIPE; write(fd, buf, len) on anything else, where send fails
/// with ENOTSOCK. Behind the "net.write" fault point, honouring
/// short_write() byte budgets (the write is clamped to the remaining
/// budget, so an armed test sees genuine partial writes).
ssize_t checked_write(int fd, const void* buf, std::size_t len, bool socket) noexcept;

// --- plumbing --------------------------------------------------------------

/// O_NONBLOCK via fcntl; false + errno on failure.
bool set_nonblocking(int fd) noexcept;

/// Binds and listens on a TCP socket at address:port (IPv4 dotted quad;
/// port 0 = kernel-assigned). On success `port` holds the actual bound
/// port. Returns an empty Fd and sets `ec` on failure. The socket is
/// nonblocking, CLOEXEC, and SO_REUSEADDR.
Fd listen_tcp(const std::string& address, std::uint16_t& port, int backlog,
              std::error_code& ec);

/// Blocking TCP connect (client/test side). Empty Fd + `ec` on failure.
Fd connect_tcp(const std::string& address, std::uint16_t port, std::error_code& ec);

/// The process-wide async-signal-safe signal funnel: hooked signals write
/// one byte (the signal number) to a self-pipe, and the net::EventLoop
/// observes them by epolling read_fd() (EventLoop::watch_signal). This is
/// noodled's one signal path; no per-signal sig_atomic_t flags polled in
/// different places.
class SignalPipe {
 public:
  /// The singleton (created on first use; the pipe lives for the process).
  static SignalPipe& instance();

  /// Installs the funnel handler for `signo` (idempotent). The previous
  /// disposition is replaced.
  void hook(int signo);

  /// The read end — nonblocking; poll/epoll it, then drain().
  int read_fd() const noexcept { return read_fd_; }

  /// Reads every pending signal byte; invokes `fn(signo)` per signal, in
  /// arrival order.
  template <typename Fn>
  void drain(Fn&& fn) {
    unsigned char buf[64];
    ssize_t got;
    while ((got = read_some(buf, sizeof buf)) > 0) {
      for (ssize_t i = 0; i < got; ++i) fn(static_cast<int>(buf[i]));
    }
  }

 private:
  SignalPipe();
  ssize_t read_some(unsigned char* buf, std::size_t len) noexcept;

  int read_fd_ = -1;
};

}  // namespace noodle::net
