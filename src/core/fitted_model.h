#pragma once
// core::FittedModel — the immutable fitted state behind a NoodleDetector.
//
// Splitting the fitted state out of the mutable detector is what makes the
// serving stack swap-safe: a FittedModel is const after construction, so a
// `shared_ptr<const FittedModel>` handle can be scanned from any number of
// threads while another thread publishes a replacement — an in-flight scan
// keeps its generation alive through the shared_ptr and can never observe a
// half-swapped model. NoodleDetector, serve::ModelRegistry, and
// serve::DetectionService all traffic in these handles; only fit()/load()
// ever create one.

#include <array>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fit.h"
#include "cp/icp.h"
#include "data/corpus.h"
#include "lint/lint.h"

namespace noodle::feat {
class FeaturizeWorkspace;
}

namespace noodle::core {

/// Lints the module `workspace` featurized last: the first
/// lint::kMaxOwnedFindings findings owned, every finding counted (empty if
/// the workspace has not featurized yet). Must be called before the
/// workspace's next featurize() invalidates that parse. Shared by
/// FittedModel::scan_verilog* and serve::DetectionService.
lint::OwnedFindings lint_last_parse(feat::FeaturizeWorkspace& workspace);

struct DetectorConfig : FitConfig {
  /// Fraction of the fitted corpus used for proper training; the rest
  /// calibrates the conformal predictors.
  double train_fraction = 0.7;
  /// Confidence level E for prediction regions (Algorithm 1).
  double confidence_level = 0.9;
};

/// Where one request's wall time went, in microseconds. Filled by
/// serve::DetectionService (zero for direct library scans); rendered by
/// `noodled !trace on` and mirrored into the service's per-stage latency
/// histograms (obs::MetricsRegistry). All stages are measured on the same
/// monotonic clock (obs::now_nanos).
struct RequestTiming {
  /// Process-unique id assigned at submit(); 0 = not traced (direct scan).
  std::uint64_t trace_id = 0;
  /// True when the verdict was answered from the LRU verdict cache: the
  /// stage fields below are then 0 except cache_lookup_us and total_us.
  bool from_cache = false;
  std::uint64_t queue_wait_us = 0;    ///< submit() -> worker pickup
  std::uint64_t featurize_us = 0;     ///< parse + feature extraction
  std::uint64_t infer_us = 0;         ///< this request's share of its batch scan
  std::uint64_t lint_us = 0;          ///< static-analysis pass (0 when lint off)
  std::uint64_t cache_lookup_us = 0;  ///< LRU probe at submit time
  std::uint64_t total_us = 0;         ///< submit() -> verdict published
};

/// Risk-aware scan verdict for one circuit.
struct DetectionReport {
  /// Point prediction: data::kTrojanFree or data::kTrojanInfected.
  int predicted_label = 0;
  /// Calibrated probability that the circuit is Trojan-infected.
  double probability = 0.0;
  /// Conformal p-values {p(TF), p(TI)} from the winning fusion arm.
  std::array<double, 2> p_values{0.0, 0.0};
  /// Region at the configured confidence level; an uncertain region (both
  /// labels) is the detector saying "escalate".
  cp::PredictionRegion region;
  /// Which fusion strategy produced this verdict ("early_fusion" or
  /// "late_fusion", chosen by calibration Brier score per Algorithm 2).
  std::string fusion_used;
  /// "name@version" of the registry generation that served this verdict;
  /// empty for direct (non-registry) scans. Filled by serve::DetectionService.
  std::string served_by;
  /// True when the static-analysis pass ran for this scan. The lint layer
  /// is strictly additive: every verdict field above is bit-identical with
  /// lint on or off (asserted by tests/test_lint.cpp).
  bool lint_ran = false;
  /// How many findings the lint pass reported (0 when lint_ran is false).
  std::uint32_t lint_count = 0;
  /// The first lint::kMaxOwnedFindings of them, in the pass's order. Owned
  /// copies — safe to move across threads.
  std::vector<lint::OwnedFinding> lint_findings;

  /// Attaches one lint pass: its count and its owned findings.
  void attach_lint(lint::OwnedFindings findings);
  /// Per-stage wall-time breakdown (serve::DetectionService requests only;
  /// all-zero for direct scans). Purely additive — no verdict field above
  /// depends on it.
  RequestTiming timing;
};

/// An immutable, fully-fitted detector generation: config, both fusion
/// arms, and the winning-fusion choice. Every method is const and stateless,
/// so one instance can serve concurrent scans from any number of threads.
class FittedModel {
 public:
  /// Assembled by NoodleDetector::fit() / load(); `winner` must be
  /// "early_fusion" or "late_fusion".
  FittedModel(DetectorConfig config, fusion::EarlyFusionModel early,
              fusion::LateFusionModel late, std::string winner);

  DetectionReport scan_features(const data::FeatureSample& sample) const;
  /// `lint` additionally runs the static-analysis pass over the parse the
  /// featurizer already produced and attaches the findings to the report;
  /// the verdict fields are unaffected.
  DetectionReport scan_verilog(const std::string& verilog_source,
                               bool lint = false) const;
  std::vector<DetectionReport> scan_many(std::span<const data::FeatureSample> samples,
                                         std::size_t threads = 0) const;
  std::vector<DetectionReport> scan_verilog_many(std::span<const std::string> sources,
                                                 std::size_t threads = 0,
                                                 bool lint = false) const;

  /// Serializes this generation into a snapshot archive (serve/snapshot.h);
  /// a load round-trips it bit-exactly.
  void save(std::ostream& os) const;
  void save(const std::filesystem::path& path) const;

  /// Loads a generation from a snapshot written by save(). Throws
  /// serve::SnapshotError on corrupted, truncated, or version-mismatched
  /// archives; a failed load constructs nothing.
  static std::shared_ptr<const FittedModel> load(const std::filesystem::path& path);

  const DetectorConfig& config() const noexcept { return config_; }
  const std::string& winning_fusion() const noexcept { return winner_; }

  /// Stable content digest: FNV-1a over the snapshot serialization,
  /// computed once at construction. Unlike the registry's process-unique
  /// generation id, the digest survives restarts and is identical in every
  /// process that loaded the same fitted state — which is what lets the
  /// persistent verdict cache (serve::PersistentVerdictCache) key entries
  /// that outlive the process and be shared across a fleet.
  std::uint64_t content_digest() const noexcept { return digest_; }

 private:
  DetectorConfig config_;
  fusion::EarlyFusionModel early_;
  fusion::LateFusionModel late_;
  std::string winner_;
  std::uint64_t digest_ = 0;
};

}  // namespace noodle::core
