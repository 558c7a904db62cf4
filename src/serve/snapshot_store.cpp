#include "serve/snapshot_store.h"

#include <exception>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/registry.h"
#include "util/atomic_file.h"
#include "util/binary_io.h"

namespace noodle::serve {

namespace {

/// Digest of the file's bytes; false when the file vanished or is
/// unreadable (a publisher may still be copying it — next sweep retries).
bool digest_file(const std::filesystem::path& path, std::uint64_t& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash = kOffset;
  std::vector<char> buffer(1u << 16);
  while (is) {
    is.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = is.gcount();
    for (std::streamsize i = 0; i < got; ++i) {
      hash ^= static_cast<unsigned char>(buffer[static_cast<std::size_t>(i)]);
      hash *= kPrime;
    }
  }
  if (is.bad()) return false;
  out = hash;
  return true;
}

}  // namespace

SnapshotStore::SnapshotStore(SnapshotStoreConfig config, ModelRegistry& registry,
                             obs::MetricsRegistry& metrics)
    : config_(std::move(config)),
      registry_(registry),
      // Both families are registered up front, so the exposition shows
      // zeros before the first sweep.
      accepted_(metrics.counter("noodle_snapshot_store_accepted_total",
                                "Snapshot archives validated and published from the store")),
      rejected_(metrics.counter("noodle_snapshot_store_rejected_total",
                                "Snapshot archives refused by validation")) {
  // A zero period would sweep back to back, re-hashing every archive.
  if (config_.poll_interval.count() <= 0) {
    throw std::invalid_argument("SnapshotStore: poll_interval must be positive");
  }
}

SnapshotStore::~SnapshotStore() { stop(); }

void SnapshotStore::start() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (poller_.joinable()) return;
    stopping_ = false;
  }
  poller_ = std::thread([this] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(wake_mu_);
        wake_cv_.wait_for(lock, config_.poll_interval,
                          [this] { return stopping_ || poke_; });
        if (stopping_) return;
        poke_ = false;
      }
      sweep();
    }
  });
}

void SnapshotStore::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (!poller_.joinable()) return;
    stopping_ = true;
  }
  wake_cv_.notify_all();
  poller_.join();
}

std::size_t SnapshotStore::rescan_now() { return sweep(); }

void SnapshotStore::poke() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    poke_ = true;
  }
  wake_cv_.notify_all();
}

SnapshotStoreStats SnapshotStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {scans_, accepted_.value(), rejected_.value(), judged_.size(), last_error_};
}

bool SnapshotStore::valid_model_name(const std::string& stem) {
  if (stem.empty()) return false;
  for (const char c : stem) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::size_t SnapshotStore::sweep() {
  std::lock_guard<std::mutex> lock(mu_);

  std::size_t accepted_this_sweep = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(config_.directory, ec);
  if (!ec) {
    for (const auto& entry : it) {
      std::error_code type_ec;
      if (!entry.is_regular_file(type_ec) || type_ec) continue;
      const std::filesystem::path& path = entry.path();
      if (util::AtomicFile::is_temp_path(path)) continue;
      const std::string stem = path.stem().string();
      if (!valid_model_name(stem)) continue;

      std::uint64_t digest = 0;
      if (!digest_file(path, digest)) continue;
      const std::string filename = path.filename().string();
      const auto judged = judged_.find(filename);
      if (judged != judged_.end() && judged->second == digest) continue;

      // New bytes under this name: validate + publish. reload_from loads
      // and validates outside every registry lock and records the attempt
      // (pass or fail) in the registry's reload event log.
      try {
        registry_.reload_from(stem, path);
        accepted_.inc();
        ++accepted_this_sweep;
      } catch (const std::exception& error) {
        rejected_.inc();
        last_error_ = filename + ": " + error.what();
      }
      // Remember the digest either way — a bad archive is not retried
      // until its bytes change.
      judged_[filename] = digest;
    }
  }
  ++scans_;
  return accepted_this_sweep;
}

}  // namespace noodle::serve
