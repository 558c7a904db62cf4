#pragma once
// NoodleDetector — the library's public entry point, the programmatic
// equivalent of Fig. 1: RTL in, risk-aware Trojan decision out.
//
//   noodle::core::DetectorConfig config;
//   noodle::core::NoodleDetector detector(config);
//   detector.fit(training_corpus);                  // or fit_default()
//   auto report = detector.scan_verilog(source);    // one RTL file
//   if (report.region.is_uncertain()) { /* escalate to manual review */ }
//
// Ownership model: the fitted state lives in an immutable, shareable
// core::FittedModel (fitted_model.h); the detector holds an atomic
// shared_ptr handle to it. fit() and load() build a complete replacement
// model and publish it with one atomic store, so scans running concurrently
// with a reload keep their generation alive and never observe a
// half-swapped model. serve::ModelRegistry manages many such handles.

#include <atomic>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fitted_model.h"

namespace noodle::core {

class NoodleDetector {
 public:
  explicit NoodleDetector(DetectorConfig config = {});
  /// Adopts an already-built generation (e.g. FittedModel::load()).
  explicit NoodleDetector(std::shared_ptr<const FittedModel> model);
  ~NoodleDetector();
  NoodleDetector(NoodleDetector&&) noexcept;
  NoodleDetector& operator=(NoodleDetector&&) noexcept;

  /// Trains on a labeled corpus: featurizes, splits off calibration, then
  /// core::fit_fusion (GAN-amplify the training split, fit both arms,
  /// calibrate, pick the winner by calibration Brier). Publishes atomically.
  /// Throws std::invalid_argument on an empty corpus or when a class below
  /// the GAN target has fewer than 4 rows in the training split.
  void fit(const std::vector<data::CircuitSample>& corpus);

  /// Convenience: builds the default synthetic corpus and fits on it.
  void fit_default();

  /// Scans one Verilog source file (must contain exactly one module).
  /// `lint` additionally runs the static-analysis pass over the same parse
  /// and attaches the findings; the verdict fields are unaffected. Throws
  /// verilog::ParseError on malformed input, std::logic_error if the
  /// detector was never fitted.
  DetectionReport scan_verilog(const std::string& verilog_source,
                               bool lint = false) const;

  /// Scans an already-featurized sample. Stateless after fit(), so
  /// concurrent scans on one fitted detector are safe.
  DetectionReport scan_features(const data::FeatureSample& sample) const;

  /// Scans a batch of featurized samples, fanning the work across
  /// `threads` workers (0 = hardware_concurrency). Reports come back in
  /// input order and are bit-identical to sequential scan_features() calls
  /// at any thread count. The whole batch is answered by the generation
  /// current at entry, even if fit()/load() swaps mid-batch.
  std::vector<DetectionReport> scan_many(std::span<const data::FeatureSample> samples,
                                         std::size_t threads = 0) const;

  /// Parses, featurizes, and scans a batch of Verilog sources in parallel.
  /// Throws verilog::ParseError (rethrown from the first failing worker) on
  /// malformed input.
  std::vector<DetectionReport> scan_verilog_many(std::span<const std::string> sources,
                                                 std::size_t threads = 0,
                                                 bool lint = false) const;

  /// Serializes the entire fitted detector — config, both fusion arms'
  /// CNN weights, normalizer state, Mondrian ICP calibration scores, and
  /// the winning-fusion choice — into a versioned snapshot archive
  /// (serve/snapshot.h). A loaded detector produces bit-identical
  /// DetectionReports for the same inputs. Throws std::logic_error if the
  /// detector was never fitted.
  void save(const std::filesystem::path& path) const;

  /// Restores a detector from a snapshot written by save(). Throws
  /// serve::SnapshotError on corrupted, truncated, or version-mismatched
  /// files; on failure the detector's previous state is left untouched.
  /// The swap is one atomic handle store: concurrent scans finish on the
  /// generation they started with.
  void load(const std::filesystem::path& path);

  /// Convenience: constructs a detector directly from a snapshot.
  static NoodleDetector from_snapshot(const std::filesystem::path& path);

  bool fitted() const noexcept;
  /// Borrowed from the current generation; the reference stays valid until
  /// the next fit()/load() on this detector.
  const std::string& winning_fusion() const;

  /// The current immutable generation (nullptr when unfitted). Callers that
  /// hold the returned handle pin that generation regardless of later swaps
  /// — this is the primitive the serving registry is built on.
  std::shared_ptr<const FittedModel> fitted_model() const noexcept;

 private:
  /// Throws std::logic_error when unfitted, else returns a pinned handle.
  std::shared_ptr<const FittedModel> require_model() const;

  DetectorConfig config_;
  std::atomic<std::shared_ptr<const FittedModel>> model_;
};

}  // namespace noodle::core
