#pragma once
// DetectionService — a long-lived serving front end over a ModelRegistry of
// fitted detector generations. This is the piece that turns the library
// into the ROADMAP's "train once, serve heavy traffic" shape:
//
//   * requests enter through an async submit() returning a future, naming a
//     model as "name" or "name@version" (or using the service default);
//   * `workers` threads pull from the request queue: each takes up to
//     max_batch of whatever is waiting and scans it itself, so a request
//     that finds a worker idle is scanned at once, and batches form only
//     from what queued while every worker was busy. A submit wakes the
//     worker that went idle most recently, so a light load stays on one
//     warm thread instead of rotating through all of them; each batch group
//     resolves its registry handle ONCE, so every verdict in a group comes
//     from exactly one generation even while reload_from() swaps models
//     live;
//   * verdicts are memoized in an LRU cache keyed by (generation id,
//     fnv1a64(source)) — cached verdicts from different generations of the
//     same name can never collide, and stale generations simply age out;
//   * counters are handles into the service's obs::MetricsRegistry, one
//     bundle per model name; stats() reads those same cells, in an order
//     that never shows torn totals like hits > requests.
//
// FittedModel generations are immutable, which is what makes batching
// across threads safe and verdicts independent of arrival order: a service
// answer is always bit-identical to a direct scan on the same generation.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/detector.h"
#include "lint/lint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/disk_cache.h"
#include "serve/registry.h"

namespace noodle::serve {

/// Model name used by the single-model convenience constructors and by
/// submit() overloads that don't name a model.
inline constexpr const char* kDefaultModelName = "default";

/// Fails a request whose deadline expired before any detector scanned it:
/// the worker that picks a batch up sweeps expired requests out of it
/// BEFORE the (expensive) featurize+scan, so under overload the service
/// sheds exactly the work nobody is waiting for anymore instead of scanning
/// into the void. Carried by the request's future like every other failure.
class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-request knobs for submit_async(); default-constructed options
/// reproduce submit()'s behaviour exactly.
struct SubmitOptions {
  /// Relative deadline measured from submit; zero = none. Expiry fails the
  /// future with DeadlineError. The deadline is enforced when a worker
  /// picks the request up (the latest point where skipping the scan still
  /// saves the work); a request already inside scan_many runs to completion.
  std::chrono::milliseconds deadline{0};
};

struct ServiceConfig {
  /// Most queued requests one worker takes into one detector batch.
  std::size_t max_batch = 16;
  /// LRU verdict-cache capacity in entries (within kCacheByteBudget of
  /// sources); 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Worker threads pulling from the request queue. Each batch is scanned
  /// on the worker that took it (scan_many with one thread).
  std::size_t workers = 1;
  /// Run the lint:: static-analysis pass on every scanned source and attach
  /// the findings to the report (verdicts are unaffected). Toggleable at
  /// runtime via DetectionService::set_lint().
  bool lint = false;
  /// Disk tier under the in-memory LRU (serve::PersistentVerdictCache).
  /// Active iff `disk_cache.directory` is non-empty; with it unset the
  /// serving path is byte-for-byte the memory-only fast path (one null
  /// check). Keys are restart-stable, so a warm directory answers across
  /// restarts and can be shared by a fleet of workers.
  DiskCacheConfig disk_cache;
};

/// Most source bytes the verdict cache holds; least recently used entries
/// go first past it, as past ServiceConfig::cache_capacity. A request line
/// may carry up to 1 MiB of RTL.
inline constexpr std::size_t kCacheByteBudget = std::size_t{64} << 20;

/// Per-model counters are bounded: model names come from client-supplied
/// request specs, so once kMaxTrackedModels distinct names have counters,
/// further new names share the kOverflowCell. A name is routed to the same
/// cell for the service's lifetime, so per-cell invariants still hold, and
/// a stream of bogus names cannot grow the metrics without bound.
inline constexpr std::size_t kMaxTrackedModels = 256;
inline constexpr const char* kOverflowCell = "(other)";

/// A read of the service counters. Every field is loaded from the metrics
/// registry cells the exposition renders; outcomes are loaded before
/// requests, so cache_hits + disk_hits + scans + parse_failures +
/// model_misses + deadline_timeouts <= requests holds in every copy.
struct ServiceStats {
  std::uint64_t requests = 0;       ///< total submit() calls
  std::uint64_t cache_hits = 0;     ///< answered from the LRU without a scan
  std::uint64_t disk_hits = 0;      ///< answered from the persistent disk tier
  std::uint64_t scans = 0;          ///< verdicts computed by a detector
  std::uint64_t parse_failures = 0; ///< requests rejected with ParseError
  std::uint64_t model_misses = 0;   ///< requests naming an unknown model/version
  std::uint64_t deadline_timeouts = 0;  ///< requests failed with DeadlineError unscanned
  std::uint64_t batches = 0;        ///< single-generation batch groups scanned
  std::uint64_t max_batch_size = 0; ///< largest coalesced batch group so far
  std::uint64_t scan_micros = 0;    ///< wall time inside detector batches
  std::uint64_t lint_runs = 0;      ///< sources the static-analysis pass covered
  std::uint64_t lint_findings = 0;  ///< findings across all lint runs
  /// Per-rule finding counts, indexed by lint::RuleId.
  std::array<std::uint64_t, lint::kRuleCount> lint_by_rule{};

  double cache_hit_rate() const noexcept {
    return requests == 0 ? 0.0
                         : static_cast<double>(cache_hits) / static_cast<double>(requests);
  }
  double average_batch_size() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(scans) / static_cast<double>(batches);
  }
  double average_scan_micros() const noexcept {
    return scans == 0 ? 0.0
                      : static_cast<double>(scan_micros) / static_cast<double>(scans);
  }
};

class DetectionService {
 public:
  /// Serves every model published in `registry` (which may keep changing —
  /// publishes, reloads, and retires take effect live). Throws
  /// std::invalid_argument on a null registry or degenerate config; the
  /// default model does not have to exist yet.
  DetectionService(std::shared_ptr<ModelRegistry> registry,
                   std::string default_model = kDefaultModelName,
                   ServiceConfig config = {});

  /// Single-model convenience: adopts an already-fitted detector into a
  /// private registry as "default"@1. Throws std::invalid_argument if the
  /// detector is unfitted or the config is degenerate.
  explicit DetectionService(core::NoodleDetector detector, ServiceConfig config = {});

  /// Single-model convenience: loads "default"@1 from a snapshot archive.
  explicit DetectionService(const std::filesystem::path& snapshot,
                            ServiceConfig config = {});

  /// Drains every outstanding request, then stops the workers.
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Queues one Verilog source for scanning by the default model. The
  /// future carries the verdict (DetectionReport::served_by says which
  /// generation answered), the parse error, or a RegistryError when the
  /// model is unknown; a cache hit resolves it immediately. Thread-safe.
  std::future<core::DetectionReport> submit(std::string verilog_source);

  /// Same, naming a model as "name" or "name@version" (version omitted =
  /// latest when a worker picks the request up). Throws RegistryError
  /// only on a malformed spec; an unknown model fails the future, not the
  /// call.
  std::future<core::DetectionReport> submit(const std::string& model_spec,
                                            std::string verilog_source);

  /// Synchronous convenience wrappers around submit().get().
  core::DetectionReport scan(std::string verilog_source);
  core::DetectionReport scan(const std::string& model_spec, std::string verilog_source);

  /// Invoked exactly once per submit_async() request with the READY future
  /// (get() returns or throws immediately — no completion ever blocks in
  /// it). Runs on whichever thread finished the request: a service worker
  /// for scanned verdicts, the submitting thread for cache hits and
  /// shutdown rejections. Event-loop callers marshal back with post().
  using CompletionFn = std::function<void(std::future<core::DetectionReport>)>;

  /// Callback-style submit for reactor front ends (noodled's ScanServer):
  /// same semantics as submit() — including the immediate cache-hit path —
  /// but the verdict is delivered to `on_complete` instead of a returned
  /// future, so an event loop never parks a thread on future.get(). A
  /// request past `options.deadline` at worker pickup fails with
  /// DeadlineError instead of being scanned. During shutdown the callback
  /// still fires (with the shutdown error) rather than throwing.
  void submit_async(std::string verilog_source, SubmitOptions options,
                    CompletionFn on_complete);
  /// Same, naming a model as "name" or "name@version". Throws RegistryError
  /// only on a malformed spec (before any callback is registered).
  void submit_async(const std::string& model_spec, std::string verilog_source,
                    SubmitOptions options, CompletionFn on_complete);

  /// Blocks until every request submitted so far has been answered and
  /// every worker that answered one is idle again.
  void drain();

  /// Aggregate counters: the sum of every model's cells (see ServiceStats).
  ServiceStats stats() const;
  /// Counters for one model name (zeros if it has no cell).
  ServiceStats stats(const std::string& model_name) const;
  /// Counters for every model cell so far, kOverflowCell included.
  std::map<std::string, ServiceStats> stats_by_model() const;

  /// The service's counter store: per-model request counters
  /// (noodle_requests_total{model=...} and the rest of ServiceStats),
  /// per-stage latency histograms (noodle_stage_duration_seconds{stage=...}),
  /// cache-probe outcome counters and the busy-worker gauge, all updated in
  /// place by the request path. net::ScanServer and SnapshotStore count
  /// here too, and embedders may register their own metrics.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Reads the state other owners keep (the disk tier, the model registry)
  /// and structure sizes (cache entries, queue depth) into the registry,
  /// then renders the Prometheus text exposition. Thread-safe; callable
  /// while the service runs.
  void render_prometheus(std::ostream& os);

  /// The live registry: publish/reload/retire take effect on the next
  /// batch a worker takes, without pausing the service.
  ModelRegistry& registry() noexcept { return *registry_; }
  const ModelRegistry& registry() const noexcept { return *registry_; }

  /// Convenience for the hot-reload control path: load the snapshot at
  /// `path` and atomically publish it as the next version of `name`.
  ModelHandle reload(const std::string& name, const std::filesystem::path& path);

  const std::string& default_model() const noexcept { return default_model_; }
  std::size_t cache_size() const;
  /// Source bytes the verdict cache holds; at most kCacheByteBudget.
  std::size_t cache_bytes() const;

  /// Runtime toggle for the static-analysis pass (the `!lint` control line
  /// in noodled). Each request samples the flag at submit time, so the
  /// toggle orders deterministically with request submission: everything
  /// submitted before it keeps the old setting even if a worker batches
  /// them with later requests.
  void set_lint(bool enabled) noexcept { lint_.store(enabled, std::memory_order_relaxed); }
  bool lint_enabled() const noexcept { return lint_.load(std::memory_order_relaxed); }

  /// The persistent disk tier; nullptr when config_.disk_cache.directory
  /// was empty. Exposed for the `!cache persist on|off` control line and
  /// for tests/operators reading its counters.
  PersistentVerdictCache* disk_cache() noexcept { return disk_cache_.get(); }
  const PersistentVerdictCache* disk_cache() const noexcept { return disk_cache_.get(); }
  /// One consistent disk-tier counter snapshot; all-zero (enabled=false)
  /// when no disk tier is configured, so callers need no null check.
  DiskCacheStats disk_cache_stats() const;

 private:
  /// One model cell: handles into metrics_ labelled {model=cell}. Created
  /// on a name's first submit and never freed, so a Request can carry a
  /// plain pointer to it from submit to its worker.
  struct ModelCounters {
    obs::Counter* requests = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* disk_hits = nullptr;
    obs::Counter* scans = nullptr;
    obs::Counter* parse_failures = nullptr;
    obs::Counter* model_misses = nullptr;
    obs::Counter* deadline_timeouts = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* scan_micros = nullptr;
    obs::Counter* lint_runs = nullptr;
    std::array<obs::Counter*, lint::kRuleCount> lint_by_rule{};
    obs::Gauge* max_batch_size = nullptr;

    /// Adds this cell's counts into `s` (max_batch_size takes the max).
    void add_to(ServiceStats& s) const;
  };

  struct Request {
    ModelSpec spec;
    ModelCounters* counters = nullptr;  ///< the spec name's cell
    std::string source;
    std::uint64_t key = 0;
    bool lint = false;  // lint_ sampled at submit time
    std::uint64_t submit_nanos = 0;  ///< obs::now_nanos() at submit (queue wait)
    std::uint64_t deadline_nanos = 0;  ///< absolute; 0 = no deadline
    core::RequestTiming timing;      ///< filled stage by stage, moved into the report
    std::promise<core::DetectionReport> promise;
    /// Async-path plumbing: the future is parked here at submit and handed
    /// (ready) to on_complete right after the promise is fulfilled. Sync
    /// submits leave both empty — deliver()/fail() then reduce to the
    /// plain promise operations.
    std::future<core::DetectionReport> future;
    CompletionFn on_complete;

    void deliver(core::DetectionReport report) {
      promise.set_value(std::move(report));
      notify();
    }
    void fail(std::exception_ptr error) {
      promise.set_exception(std::move(error));
      notify();
    }
    void notify() {
      if (on_complete) on_complete(std::move(future));
    }
  };

  /// Per-stage latency histograms; indexes into stage_hist_.
  enum Stage : std::size_t {
    kStageQueueWait = 0,
    kStageFeaturize,
    kStageInfer,
    kStageLint,
    kStageCacheLookup,
    kStageTotal,
    kStageCount,
  };

  /// Why a submit-time cache probe did not answer the request; each reason
  /// has its own counter so hit/miss accounting stays exact under `!lint`
  /// toggles (a lint-state mismatch is a distinct, visible miss, not a
  /// phantom hit — see tests/test_serve.cpp).
  enum class CacheProbe : std::size_t {
    kHit = 0,
    kDiskHit,        ///< in-memory miss answered by the persistent disk tier
    kMissAbsent,     ///< no entry for (generation, hash)
    kMissCollision,  ///< hash matched, full source compare did not
    kMissLintState,  ///< entry exists but was scanned with the other lint setting
    kMissBypass,     ///< cache disabled, or the spec is not resolvable yet
    kProbeCount,
  };

  /// Verdict-cache key: the generation id scopes the source hash, so two
  /// generations of one name (or two names) can never serve each other's
  /// cached verdicts.
  struct CacheKey {
    std::uint64_t model_id = 0;
    std::uint64_t source_hash = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const noexcept {
      // fnv1a-style mix of the two words.
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (std::uint64_t word : {key.model_id, key.source_hash}) {
        h = (h ^ word) * 0x100000001b3ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };

  /// The one enqueue path behind submit()/submit_async(). With a null
  /// `on_complete` behaves exactly like the PR-5 submit (returns the
  /// future, throws when stopping); with one, delivers through the
  /// callback and returns an empty future.
  std::future<core::DetectionReport> submit_request(ModelSpec spec, std::string source,
                                                    SubmitOptions options,
                                                    CompletionFn on_complete);
  /// How submit() wakes one particular idle worker. Guarded by
  /// queue_mutex_; one per worker, living as long as the service.
  struct WakeSlot {
    std::condition_variable cv;
    bool woken = false;
  };

  /// One worker thread: parks its slot on the idle stack until requests
  /// are queued, takes up to max_batch of them, scans them, repeats;
  /// returns once stopping with an empty queue. Each batch passes the
  /// "serve.batch" util::FaultInjector crash point after leaving the queue
  /// and before its pickup time is stamped (a test holds the worker there
  /// to keep work in flight).
  void worker_loop(WakeSlot& slot);
  /// Stops and joins the workers; the queue is answered first.
  void stop_workers();
  void process_batch(std::vector<Request> batch);
  void process_group(const std::string& group_label, std::vector<Request> group);
  CacheProbe cache_lookup(const CacheKey& key, const std::string& source,
                          bool want_lint, core::DetectionReport& report);
  void cache_store(const CacheKey& key, std::string source,
                   const core::DetectionReport& report);
  /// Registers the service's own metrics (constructor only).
  void register_metrics();
  /// The cell counting requests for model `name`: found, or registered on
  /// the name's first request (kOverflowCell past kMaxTrackedModels).
  ModelCounters& model_counters(const std::string& name);

  std::shared_ptr<ModelRegistry> registry_;
  std::string default_model_;
  ServiceConfig config_;
  std::atomic<bool> lint_{false};  // seeded from config_.lint

  mutable std::mutex queue_mutex_;
  std::vector<WakeSlot> wake_slots_;  ///< one per worker, sized at construction
  /// Slots of the idle workers; submit() wakes the back one, the worker
  /// that went idle most recently (its caches are the warmest).
  std::vector<WakeSlot*> idle_;
  std::condition_variable drained_cv_;
  std::deque<Request> queue_;
  std::size_t outstanding_ = 0;  ///< submitted but not yet answered
  bool stopping_ = false;

  // LRU cache: most-recent at the front of lru_; the map holds the verdict
  // and the entry's position in lru_. The full source is kept and compared
  // on hit: the source hash is a non-cryptographic 64-bit hash of
  // attacker-supplied RTL, and a collision must never serve another
  // circuit's verdict.
  struct CacheEntry {
    std::string source;
    core::DetectionReport report;
    std::list<CacheKey>::iterator position;
  };
  mutable std::mutex cache_mutex_;
  std::list<CacheKey> lru_;
  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  std::size_t cache_bytes_ = 0;  ///< sum of the entries' source sizes

  /// Disk tier under the LRU; null when not configured. Declared before
  /// workers_ because their threads store into it; its own writer thread
  /// never touches service state, so destruction order is safe.
  std::unique_ptr<PersistentVerdictCache> disk_cache_;

  // Declared before workers_ so the gauges and histograms outlive every
  // thread that records into them (members destroy in reverse order).
  obs::MetricsRegistry metrics_;
  std::array<obs::Histogram*, kStageCount> stage_hist_{};
  std::array<obs::Counter*, static_cast<std::size_t>(CacheProbe::kProbeCount)>
      probe_counters_{};
  obs::Gauge* batches_in_flight_ = nullptr;
  /// Model cells by name. The mutex guards membership only: the counts
  /// are atomics in metrics_.
  mutable std::mutex counters_mutex_;
  std::map<std::string, std::unique_ptr<ModelCounters>> counters_;

  /// Started last in the constructor and joined first in the destructor:
  /// the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace noodle::serve
