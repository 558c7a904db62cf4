#pragma once
// util::AtomicFile — crash-safe file publication: write a temp file in the
// TARGET'S OWN directory, fsync it, then atomically rename() it over the
// target and fsync the directory. A reader (or a process restarted after a
// crash at any instant) sees either the previous complete file or the new
// complete file — never a torn, partial, or empty one. This is the one
// write path every durable artifact in the repo goes through: `noodled
// --metrics-file` dumps, serve::PersistentVerdictCache records, and any
// future state file.
//
// The commit sequence, with its fault/crash points (util::FaultInjector):
//
//   open temp         "atomic_file.open"
//   write bytes       "atomic_file.write"        (short-write injectable)
//                     "atomic_file.before_fsync" (crash point)
//   fsync temp        "atomic_file.fsync"
//                     "atomic_file.before_rename" (crash: temp durable,
//                                                  target still old)
//   rename over target "atomic_file.rename"
//                     "atomic_file.after_rename"  (crash: new target live,
//                                                  dir entry maybe unsynced)
//   fsync directory   "atomic_file.dirsync"
//
// Error handling is by std::error_code, not exceptions: the disk tier must
// degrade gracefully on ENOSPC/EIO, never unwind a serving thread. Any
// failed step unlinks the temp file; so does destruction without commit()
// (RAII abort). After a failure the target is untouched.
//
// Temp names embed the pid plus a process-wide counter
// ("<target>.tmp.<pid>.<n>"), so concurrent writers never collide and a
// crash-orphaned temp is recognizable (is_temp_path) and safe to sweep.
//
// read_regular_file is the bounded read side for a path a request names:
// regular files only, never blocking on open, never past a byte cap.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace noodle::util {

class AtomicFile {
 public:
  /// Opens the temp file next to `target`. Check ok() (or error()) before
  /// writing: construction does not throw on I/O failure.
  explicit AtomicFile(std::filesystem::path target);

  /// Aborts (closes and unlinks the temp) unless commit() succeeded.
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  bool ok() const noexcept { return !error_; }
  std::error_code error() const noexcept { return error_; }

  /// Appends bytes to the temp file. Returns false (and latches error())
  /// on failure; further writes become no-ops.
  bool write(const void* data, std::size_t size);
  bool write(std::string_view text) { return write(text.data(), text.size()); }

  /// fsync + rename + directory fsync. Returns the empty error_code on
  /// success (the target now durably holds exactly the written bytes); on
  /// failure the temp is gone and the target is untouched — except when the
  /// rename itself succeeded and only the directory fsync failed, in which
  /// case the new file is live but its directory entry may not survive a
  /// power loss (the returned code reports it). Idempotent: a second call
  /// after success returns success; after failure, the latched error.
  std::error_code commit();

  /// Explicit abort: close and unlink the temp, leave the target alone.
  void abort() noexcept;

  const std::filesystem::path& target() const noexcept { return target_; }
  const std::filesystem::path& temp_path() const noexcept { return temp_; }
  bool committed() const noexcept { return committed_; }

  /// True for paths produced by this class's temp naming scheme — crash
  /// leftovers a directory scanner should sweep, not parse.
  static bool is_temp_path(const std::filesystem::path& path);

 private:
  std::filesystem::path target_;
  std::filesystem::path temp_;
  int fd_ = -1;
  bool committed_ = false;
  std::error_code error_;
};

/// Reads a whole regular file of at most `max_bytes` bytes. Returns nullopt
/// when the path does not open, names anything but a regular file (a FIFO,
/// a device, a directory), holds more than `max_bytes` bytes, or grows
/// while it is read. The open does not block, so a FIFO without a writer
/// cannot stall the caller, and at most `max_bytes + 1` bytes are read.
std::optional<std::string> read_regular_file(const std::filesystem::path& path,
                                             std::size_t max_bytes);

}  // namespace noodle::util
