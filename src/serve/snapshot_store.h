#pragma once
// serve::SnapshotStore — a content-addressed drop directory that feeds
// ModelRegistry. Operators (or a training pipeline) copy snapshot archives
// into the store directory; noodled polls it (and rescans immediately on
// SIGHUP / `!reload store`) and publishes every NEW archive through
// ModelRegistry::reload_from. "New" is decided by content, not mtime: the
// store remembers the FNV-1a digest of every file it has judged, so a
// re-copied identical archive is a no-op and an overwritten one is picked
// up even when the filesystem clock went backwards.
//
// Failure contract (the whole point of the store):
//
//   * validation happens entirely off the serving path —
//     ModelRegistry::reload_from loads + fully validates the archive before
//     touching any registry lock, so a corrupt or truncated drop can never
//     stall or crash a scan;
//   * a rejected archive is counted, recorded in the registry's reload
//     event log (reload_from records the failure before throwing), and
//     REMEMBERED by digest — the store does not retry the same bad bytes
//     every poll tick. Fixing the file (new bytes, new digest) retries it;
//   * the previously published generation keeps serving throughout — the
//     registry swap is atomic and only happens after validation succeeds.
//
// Model naming: an archive dropped as `<name>.snap` (any extension works)
// publishes as the next version of `<name>`. Names must match the
// registry's [A-Za-z0-9._-]+ rule; files with invalid stems, directories,
// and util::AtomicFile temps (a publisher crashed mid-copy) are skipped.

#include <condition_variable>
#include <cstdint>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace noodle::obs {
class Counter;
class MetricsRegistry;
}  // namespace noodle::obs

namespace noodle::serve {

class ModelRegistry;

struct SnapshotStoreConfig {
  std::filesystem::path directory;
  /// Poll period, positive; SIGHUP-driven rescan_now() cuts ahead of it.
  std::chrono::milliseconds poll_interval{2000};
};

/// The store's counters, read under its sweep lock: accepted and rejected
/// are the noodle_snapshot_store_* cells in the metrics registry.
struct SnapshotStoreStats {
  std::uint64_t scans = 0;     ///< directory sweeps completed
  std::uint64_t accepted = 0;  ///< archives validated and published
  std::uint64_t rejected = 0;  ///< archives refused by validation
  std::uint64_t known = 0;     ///< digests currently remembered
  std::string last_error;      ///< what() of the most recent rejection
};

class SnapshotStore {
 public:
  /// `registry` and `metrics` must outlive the store, which counts into
  /// noodle_snapshot_store_{accepted,rejected}_total in `metrics`. The
  /// constructor neither scans nor starts a thread — call start() (or
  /// rescan_now() for a one-shot synchronous sweep, used by tests).
  /// Throws std::invalid_argument on a non-positive poll_interval.
  SnapshotStore(SnapshotStoreConfig config, ModelRegistry& registry,
                obs::MetricsRegistry& metrics);
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Starts the background poll thread (idempotent).
  void start();
  /// Stops and joins the poll thread (idempotent; also run by ~SnapshotStore).
  void stop();

  /// Sweeps the directory once, synchronously, on the caller's thread.
  /// Returns the number of archives accepted this sweep. Never throws:
  /// rejections are counted and logged, an unreadable directory just
  /// yields an empty sweep. Safe to call concurrently with the poll
  /// thread (sweeps serialize on an internal mutex).
  std::size_t rescan_now();

  /// Wakes the poll thread to sweep immediately (the SIGHUP hook —
  /// async-signal-UNSAFE, so noodled calls it from its event loop's
  /// signal callback, not the handler itself).
  void poke();

  SnapshotStoreStats stats() const;

  const std::filesystem::path& directory() const noexcept { return config_.directory; }

 private:
  std::size_t sweep();
  /// True when `stem` satisfies the registry's model-name rule.
  static bool valid_model_name(const std::string& stem);

  SnapshotStoreConfig config_;
  ModelRegistry& registry_;

  /// Serializes sweeps and guards the digest memory, scans_ and
  /// last_error_, so stats() reads between sweeps.
  mutable std::mutex mu_;
  /// Every digest this store has judged (accepted or rejected), keyed by
  /// filename so an overwritten file re-validates.
  std::unordered_map<std::string, std::uint64_t> judged_;
  std::uint64_t scans_ = 0;
  std::string last_error_;
  obs::Counter& accepted_;
  obs::Counter& rejected_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool poke_ = false;
  bool stopping_ = false;
  std::thread poller_;
};

}  // namespace noodle::serve
