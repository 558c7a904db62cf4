#pragma once
// serve::ModelRegistry — named, versioned, atomically-swappable detector
// generations. The registry is what turns one-process/one-model serving
// into fleet-style serving: a single noodled process can hold several
// detector generations side by side (A/B tests, per-customer models) and
// hot-swap any of them without dropping or blocking queued requests.
//
// Ownership model (built on core::FittedModel's immutability):
//
//   * a published generation is a LoadedModel — an immutable record binding
//     `name@version` to a shared FittedModel handle and a process-unique
//     generation id (the verdict-cache key component);
//   * publish()/reload_from() build the replacement completely outside the
//     registry locks, then repoint the name's `latest` slot with ONE atomic
//     shared_ptr store — readers see either the old generation or the new
//     one, never a mixture;
//   * resolve() pins a generation: callers holding the returned handle keep
//     it alive and bit-stable regardless of later swaps or retires, so an
//     in-flight scan_many batch is always answered by exactly one
//     generation (DetectionService resolves once per batch group — the
//     cost is amortized over the batch and is negligible next to a scan).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/fitted_model.h"

namespace noodle::serve {

/// Raised on unknown names/versions, malformed specs, and null publishes.
/// (Snapshot problems during reload_from surface as SnapshotError.)
class RegistryError : public std::runtime_error {
 public:
  explicit RegistryError(const std::string& what) : std::runtime_error(what) {}
};

/// A model request: `version == 0` means "latest published".
struct ModelSpec {
  std::string name;
  std::uint64_t version = 0;

  std::string to_string() const;
};

/// Parses "name" or "name@version". Names are [A-Za-z0-9._-]+; versions are
/// positive decimal integers. Returns nullopt on anything else, without
/// building an error message: the request parser probes every "prefix:"
/// of a line, and most prefixes (an inline `[7:0]`, a `C:` path) are not
/// specs.
std::optional<ModelSpec> try_parse_model_spec(std::string_view spec) noexcept;

/// try_parse_model_spec that throws RegistryError on a malformed spec.
ModelSpec parse_model_spec(std::string_view spec);

/// One immutable published generation: `name@version` plus the shared
/// fitted-model handle. The id is process-unique across every publish (two
/// generations never share one), which is what keys cached verdicts so
/// different generations can never collide.
class LoadedModel {
 public:
  LoadedModel(std::string name, std::uint64_t version, std::uint64_t id,
              std::shared_ptr<const core::FittedModel> model,
              std::filesystem::path source);

  const std::string& name() const noexcept { return name_; }
  std::uint64_t version() const noexcept { return version_; }
  std::uint64_t id() const noexcept { return id_; }
  /// Snapshot path this generation was loaded from; empty for in-memory
  /// publishes.
  const std::filesystem::path& source() const noexcept { return source_; }
  const core::FittedModel& model() const noexcept { return *model_; }
  std::shared_ptr<const core::FittedModel> model_ptr() const noexcept { return model_; }
  /// "name@version" — the label stamped into DetectionReport::served_by.
  std::string label() const;

 private:
  std::string name_;
  std::uint64_t version_;
  std::uint64_t id_;
  std::shared_ptr<const core::FittedModel> model_;
  std::filesystem::path source_;
};

using ModelHandle = std::shared_ptr<const LoadedModel>;

/// One entry in the registry's bounded reload/publish event log: every
/// publish(), every reload_from() — including the ones that failed — with
/// a wall-clock timestamp and the load+validate cost. The log is what
/// `noodled !models` and the metrics surface read to answer "what changed
/// on this server, when, and how long did the swap take".
struct ReloadEvent {
  std::chrono::system_clock::time_point when;
  std::string name;
  std::uint64_t version = 0;     ///< 0 for failed loads (nothing published)
  std::uint64_t generation = 0;  ///< process-unique id; 0 for failures
  std::uint64_t load_micros = 0; ///< snapshot load+validate wall time; 0 for
                                 ///< in-memory publishes
  bool ok = false;
  std::string error;             ///< what() of the failure; empty when ok
};

/// Monotone totals across the registry's lifetime (the event log itself is
/// bounded, so counts are kept separately).
struct ReloadStats {
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t load_micros_total = 0;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Publishes `model` as the next version of `name` (versions start at 1
  /// and never repeat, even after retires) and atomically repoints the
  /// name's latest slot. Throws RegistryError on a null model or bad name.
  ModelHandle publish(const std::string& name,
                      std::shared_ptr<const core::FittedModel> model,
                      std::filesystem::path source = {});

  /// Loads and fully validates the snapshot at `path` (outside every
  /// registry lock — concurrent resolves keep being served by the current
  /// generation), then publishes it as the next version of `name`. Throws
  /// SnapshotError on a bad archive, leaving the name untouched.
  ModelHandle reload_from(const std::string& name, const std::filesystem::path& path);

  /// Pins a generation. version == 0 resolves the latest. Throws
  /// RegistryError when the name or version is unknown.
  ModelHandle resolve(const ModelSpec& spec) const;
  ModelHandle resolve(std::string_view spec) const;
  /// Like resolve(), but returns nullptr instead of throwing.
  ModelHandle try_resolve(const ModelSpec& spec) const noexcept;

  /// Removes one version (version == 0 removes the current latest). If the
  /// removed version was the latest, the slot repoints to the highest
  /// remaining version; pinned handles stay alive and scannable. Returns
  /// false when the name/version is unknown.
  bool retire(const std::string& name, std::uint64_t version = 0);

  /// The most recent publish/reload events, oldest first, bounded at
  /// kMaxReloadEvents (older events age out; totals survive in
  /// reload_stats()).
  static constexpr std::size_t kMaxReloadEvents = 64;
  std::vector<ReloadEvent> reload_events() const;
  /// Monotone ok/error counts and cumulative load time.
  ReloadStats reload_stats() const;

  /// Names with at least one live version, sorted.
  std::vector<std::string> names() const;
  /// Every live generation, sorted by name then version.
  std::vector<ModelHandle> catalog() const;
  /// Live generation count across all names.
  std::size_t size() const;

 private:
  struct NameEntry {
    /// The epoch slot: repointed by exactly one atomic store per publish.
    std::atomic<ModelHandle> latest{nullptr};
    /// Guards versions/next_version (slow path only).
    mutable std::mutex mu;
    std::map<std::uint64_t, ModelHandle> versions;
    std::uint64_t next_version = 1;
  };

  std::shared_ptr<NameEntry> find_entry(const std::string& name) const;
  ModelHandle publish_timed(const std::string& name,
                            std::shared_ptr<const core::FittedModel> model,
                            std::filesystem::path source, std::uint64_t load_micros);
  void record_event(ReloadEvent event);

  mutable std::shared_mutex names_mu_;
  std::unordered_map<std::string, std::shared_ptr<NameEntry>> names_;
  std::atomic<std::uint64_t> next_id_{1};

  mutable std::mutex events_mu_;
  std::deque<ReloadEvent> events_;  ///< bounded ring, oldest at front
  ReloadStats reload_stats_;
};

}  // namespace noodle::serve
