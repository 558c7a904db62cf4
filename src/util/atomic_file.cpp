#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <string>

#include "util/fault_injector.h"

namespace noodle::util {

namespace {

/// Process-wide temp suffix counter: two AtomicFiles aimed at one target
/// from two threads must not share a temp path.
std::atomic<std::uint64_t> g_temp_counter{0};

std::error_code errno_code(int err) {
  return {err, std::generic_category()};
}

/// Checks the injector (if armed) for a scripted failure at `point`.
bool injected_failure(const char* point, std::error_code& out) {
  FaultInjector* faults = FaultInjector::active();
  if (faults == nullptr) return false;
  int error = 0;
  if (!faults->should_fail(point, error)) return false;
  out = errno_code(error);
  return true;
}

void reach_crash_point(const char* point) {
  if (FaultInjector* faults = FaultInjector::active()) faults->reach(point);
}

}  // namespace

AtomicFile::AtomicFile(std::filesystem::path target) : target_(std::move(target)) {
  temp_ = target_;
  temp_ += ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(g_temp_counter.fetch_add(1, std::memory_order_relaxed));
  if (injected_failure("atomic_file.open", error_)) return;
  fd_ = ::open(temp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) error_ = errno_code(errno);
}

AtomicFile::~AtomicFile() {
  if (!committed_) abort();
}

bool AtomicFile::write(const void* data, std::size_t size) {
  if (error_ || committed_) return false;
  const char* bytes = static_cast<const char*>(data);
  FaultInjector* faults = FaultInjector::active();
  while (size > 0) {
    std::size_t chunk = size;
    if (faults != nullptr) {
      int err = 0;
      if (faults->should_fail("atomic_file.write", err)) {
        error_ = errno_code(err);
        return false;
      }
      const std::uint64_t budget = faults->write_budget("atomic_file.write");
      if (budget < chunk) chunk = static_cast<std::size_t>(budget);
    }
    const ::ssize_t wrote = ::write(fd_, bytes, chunk);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      error_ = errno_code(errno);
      return false;
    }
    if (faults != nullptr) {
      faults->consume("atomic_file.write", static_cast<std::uint64_t>(wrote));
    }
    bytes += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  return true;
}

std::error_code AtomicFile::commit() {
  if (committed_) return {};
  if (error_) {
    abort();
    return error_;
  }

  reach_crash_point("atomic_file.before_fsync");
  if (injected_failure("atomic_file.fsync", error_) || ::fsync(fd_) != 0) {
    if (!error_) error_ = errno_code(errno);
    abort();
    return error_;
  }
  ::close(fd_);
  fd_ = -1;

  reach_crash_point("atomic_file.before_rename");
  if (injected_failure("atomic_file.rename", error_) ||
      std::rename(temp_.c_str(), target_.c_str()) != 0) {
    if (!error_) error_ = errno_code(errno);
    abort();
    return error_;
  }
  committed_ = true;  // target is live from this instant
  reach_crash_point("atomic_file.after_rename");

  // Make the directory entry itself durable: without this, a power loss
  // can forget the rename even though the file's bytes are on disk.
  if (injected_failure("atomic_file.dirsync", error_)) return error_;
  const std::filesystem::path dir =
      target_.has_parent_path() ? target_.parent_path() : std::filesystem::path(".");
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    error_ = errno_code(errno);
    return error_;
  }
  if (::fsync(dir_fd) != 0) error_ = errno_code(errno);
  ::close(dir_fd);
  return error_;
}

void AtomicFile::abort() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!committed_) {
    ::unlink(temp_.c_str());  // best effort; ENOENT is fine
  }
}

bool AtomicFile::is_temp_path(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  const std::size_t tmp = name.rfind(".tmp.");
  if (tmp == std::string::npos) return false;
  // ".tmp.<digits>.<digits>" and nothing else after it.
  std::size_t i = tmp + 5;
  int dots = 0;
  if (i >= name.size()) return false;
  for (; i < name.size(); ++i) {
    if (name[i] == '.') {
      ++dots;
      continue;
    }
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return dots == 1;
}

std::optional<std::string> read_regular_file(const std::filesystem::path& path,
                                             std::size_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct Closer {  // closes on every return, a throwing resize included
    explicit Closer(int owned) : fd(owned) {}
    Closer(const Closer&) = delete;
    Closer& operator=(const Closer&) = delete;
    ~Closer() { ::close(fd); }
    int fd;
  } closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) ||
      static_cast<std::uintmax_t>(st.st_size) > max_bytes) {
    return std::nullopt;
  }
  // One byte past the size fstat saw: a file that grew since is refused.
  std::string text(static_cast<std::size_t>(st.st_size) + 1, '\0');
  std::size_t got = 0;
  while (got < text.size()) {
    const ssize_t n = ::read(fd, text.data() + got, text.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  if (got == text.size()) return std::nullopt;
  text.resize(got);
  return text;
}

}  // namespace noodle::util
