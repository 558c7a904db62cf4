#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/fault_injector.h"

namespace noodle::net {

namespace {

/// One relaxed atomic load when disarmed — the same zero-cost contract as
/// the atomic_file.* fault points.
bool injected_failure(const char* point, int& error) noexcept {
  util::FaultInjector* faults = util::FaultInjector::active();
  if (faults == nullptr) return false;
  return faults->should_fail(point, error);
}

}  // namespace

void Fd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

int checked_accept(int listen_fd) noexcept {
  int error = 0;
  if (injected_failure("net.accept", error)) {
    errno = error;
    return -1;
  }
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) {
    // Nagle off: a response written while an earlier one is still
    // unacknowledged would otherwise wait for the client's (delayed) ACK.
    // Best-effort; a socket that refuses it still serves.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

ssize_t checked_read(int fd, void* buf, std::size_t len) noexcept {
  int error = 0;
  if (injected_failure("net.read", error)) {
    errno = error;
    return -1;
  }
  return ::read(fd, buf, len);
}

ssize_t checked_write(int fd, const void* buf, std::size_t len, bool socket) noexcept {
  const auto put = [fd, buf, socket](std::size_t n) {
    return socket ? ::send(fd, buf, n, MSG_NOSIGNAL) : ::write(fd, buf, n);
  };
  util::FaultInjector* faults = util::FaultInjector::active();
  if (faults != nullptr) {
    int error = 0;
    if (faults->should_fail("net.write", error)) {
      errno = error;
      return -1;
    }
    // Clamp to the scripted byte budget so tests observe genuine short
    // writes; the budget is charged with what the kernel really took.
    const std::uint64_t budget = faults->write_budget("net.write");
    if (budget < len) len = static_cast<std::size_t>(budget);
    if (len == 0) {
      errno = EAGAIN;  // capped at zero without a scripted errno yet
      return -1;
    }
    const ssize_t wrote = put(len);
    if (wrote > 0) faults->consume("net.write", static_cast<std::uint64_t>(wrote));
    return wrote;
  }
  return put(len);
}

bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Fd listen_tcp(const std::string& address, std::uint16_t& port, int backlog,
              std::error_code& ec) {
  ec.clear();
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) {
    ec = std::error_code(errno, std::generic_category());
    return {};
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ec = std::make_error_code(std::errc::invalid_argument);
    return {};
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd.get(), backlog) != 0) {
    ec = std::error_code(errno, std::generic_category());
    return {};
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    ec = std::error_code(errno, std::generic_category());
    return {};
  }
  port = ntohs(bound.sin_port);
  return fd;
}

Fd connect_tcp(const std::string& address, std::uint16_t port, std::error_code& ec) {
  ec.clear();
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) {
    ec = std::error_code(errno, std::generic_category());
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ec = std::make_error_code(std::errc::invalid_argument);
    return {};
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ec = std::error_code(errno, std::generic_category());
    return {};
  }
  return fd;
}

// ---------------------------------------------------------------------------
// SignalPipe
// ---------------------------------------------------------------------------

namespace {

/// The handler only sees this fd — written once before any hook() returns,
/// read never (the handler just writes one byte). volatile is unnecessary:
/// hook() installs the handler after the store, and signal delivery to the
/// installing thread is sequenced after sigaction returns.
int g_signal_write_fd = -1;

extern "C" void signal_pipe_handler(int signo) {
  // Async-signal-safe: one write(2) of one byte. A full pipe drops the
  // byte, which collapses a burst of identical signals into fewer
  // deliveries — fine for the dump/rescan/drain semantics funneled here.
  const unsigned char byte = static_cast<unsigned char>(signo);
  [[maybe_unused]] const ssize_t ignored = ::write(g_signal_write_fd, &byte, 1);
}

}  // namespace

SignalPipe& SignalPipe::instance() {
  static SignalPipe pipe;
  return pipe;
}

SignalPipe::SignalPipe() {
  int fds[2] = {-1, -1};
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) return;  // read_fd_ stays -1
  read_fd_ = fds[0];
  g_signal_write_fd = fds[1];
}

void SignalPipe::hook(int signo) {
  struct sigaction action {};
  action.sa_handler = signal_pipe_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(signo, &action, nullptr);
}

ssize_t SignalPipe::read_some(unsigned char* buf, std::size_t len) noexcept {
  if (read_fd_ < 0) return 0;
  return ::read(read_fd_, buf, len);
}

}  // namespace noodle::net
