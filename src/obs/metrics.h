#pragma once
// obs::MetricsRegistry — named counters, gauges, and latency histograms
// with label support and Prometheus text exposition. This is the one
// counter store of the serving stack: DetectionService owns one, it and
// net::ScanServer count into handles registered here, their stats() views
// read those same cells, and `noodled !metrics` / `--metrics-file` render
// them.
//
// Usage contract (mirrors the repo's workspace discipline):
//
//   * registration (counter()/gauge()/histogram()) is the slow path: it
//     takes the registry mutex, may allocate, and returns a reference that
//     stays valid for the registry's lifetime — do it once at startup;
//   * recording on the returned handles is the hot path: lock-free atomic
//     ops with zero heap allocations (counting-operator-new asserted in
//     tests/test_obs.cpp);
//   * snapshot() and render_prometheus() walk every family under the
//     registry mutex, so membership is consistent and a family's samples
//     are read in one pass; individual cells are monotone atomics, so a
//     racing increment lands in this read or the next, never torn.
//
// Metric and label names must match Prometheus rules
// ([a-zA-Z_:][a-zA-Z0-9_:]*); registration throws on anything else, and on
// re-registering a name as a different metric type.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"

namespace noodle::obs {

/// Monotone event counter.
///
/// inc() is a release RMW and value() an acquire load. That order is what
/// keeps DetectionService::stats() untorn: every request is counted before
/// its outcome (a scan, a cache hit, a parse failure), so a reader that
/// loads the outcome counters first and the request counter last can never
/// see more outcomes than requests.
///
/// set() publishes a monotone source owned elsewhere (the disk tier's
/// DiskCacheStats, the model registry's ReloadStats) when the exposition is
/// rendered. It is never used on a counter that anything increments, and
/// it must never be handed a smaller value.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_release); }
  void set(std::uint64_t v) noexcept { value_.store(v, std::memory_order_release); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed value (queue depths, in-flight counts, cache sizes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  void sub(std::int64_t n) noexcept { value_.fetch_sub(n, std::memory_order_relaxed); }
  /// High-water mark: raises the value to `v` if it is below it.
  void raise(std::int64_t v) noexcept {
    std::int64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < v && !value_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// One label key/value pair; a metric is identified by (name, label set).
struct Label {
  std::string key;
  std::string value;
  bool operator==(const Label&) const = default;
};
using Labels = std::vector<Label>;

enum class MetricType { kCounter, kGauge, kHistogram };

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The same (name, labels) always returns the same object;
  /// the reference stays valid for the registry's lifetime. The first call
  /// for a name fixes its type and help text; a later call with another
  /// type throws std::invalid_argument, as do malformed names/labels.
  Counter& counter(std::string_view name, std::string_view help, Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help, Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help, Labels labels = {});

  /// One metric's merged value at snapshot time.
  struct Sample {
    std::string name;
    MetricType type = MetricType::kCounter;
    Labels labels;
    std::uint64_t counter = 0;           ///< kCounter
    std::int64_t gauge = 0;              ///< kGauge
    Histogram::Snapshot histogram;       ///< kHistogram
  };

  /// Every registered metric, ordered by (name, registration order).
  /// Membership is mutex-consistent; cell values are merged atomically per
  /// metric (see header comment).
  std::vector<Sample> snapshot() const;

  /// Prometheus text exposition (format 0.0.4): one # HELP / # TYPE pair
  /// per family, histogram families as cumulative `_bucket{le="..."}`
  /// series (seconds) plus `_sum` / `_count`. Rendered in one pass under
  /// the registry mutex.
  void render_prometheus(std::ostream& os) const;

  /// Registered family count (not label variants).
  std::size_t family_count() const;

 private:
  struct Entry {
    Labels labels;
    // Exactly one is set, matching the family type. unique_ptr keeps
    // addresses stable across the vector's growth.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Entry> entries;
  };

  Entry& find_or_create(std::string_view name, std::string_view help,
                        MetricType type, Labels&& labels);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;  // sorted exposition
};

}  // namespace noodle::obs
