#include "core/detector.h"

#include <stdexcept>

#include "data/dataset.h"
#include "util/rng.h"

namespace noodle::core {

NoodleDetector::NoodleDetector(DetectorConfig config) : config_(std::move(config)) {}

NoodleDetector::NoodleDetector(std::shared_ptr<const FittedModel> model)
    : config_(model ? model->config() : DetectorConfig{}), model_(std::move(model)) {}

NoodleDetector::~NoodleDetector() = default;

NoodleDetector::NoodleDetector(NoodleDetector&& other) noexcept
    : config_(std::move(other.config_)), model_(other.model_.exchange(nullptr)) {}

NoodleDetector& NoodleDetector::operator=(NoodleDetector&& other) noexcept {
  if (this != &other) {
    config_ = std::move(other.config_);
    model_.store(other.model_.exchange(nullptr));
  }
  return *this;
}

void NoodleDetector::fit(const std::vector<data::CircuitSample>& corpus) {
  if (corpus.empty()) throw std::invalid_argument("NoodleDetector::fit: empty corpus");
  const data::FeatureDataset dataset = data::featurize_corpus(corpus);

  // Split the real circuits into proper training + calibration before
  // fit_fusion amplifies the training split. stratified_split reserves a
  // test shard; merge it into calibration since the detector keeps no
  // internal test set.
  util::Rng rng(config_.seed);
  const data::SplitIndices split = data::stratified_split(
      dataset.labels(), config_.train_fraction, 1.0 - config_.train_fraction - 1e-9, rng);
  std::vector<std::size_t> cal_indices = split.cal;
  cal_indices.insert(cal_indices.end(), split.test.begin(), split.test.end());
  FusionFit fit = fit_fusion(config_, data::subset(dataset, split.train),
                             data::subset(dataset, cal_indices));

  // Build the complete replacement generation, then publish it with one
  // atomic store — a concurrent scan either sees the old generation or this
  // one, never a mixture.
  model_.store(std::make_shared<const FittedModel>(config_, std::move(fit.early),
                                                   std::move(fit.late), std::move(fit.winner)));
}

void NoodleDetector::fit_default() {
  data::CorpusSpec spec;
  spec.design_count = 240;
  spec.infected_fraction = 0.3;
  spec.seed = config_.seed;
  fit(data::build_corpus(spec));
}

std::shared_ptr<const FittedModel> NoodleDetector::fitted_model() const noexcept {
  return model_.load();
}

std::shared_ptr<const FittedModel> NoodleDetector::require_model() const {
  std::shared_ptr<const FittedModel> model = model_.load();
  if (!model) throw std::logic_error("NoodleDetector: fit() first");
  return model;
}

DetectionReport NoodleDetector::scan_features(const data::FeatureSample& sample) const {
  return require_model()->scan_features(sample);
}

DetectionReport NoodleDetector::scan_verilog(const std::string& verilog_source,
                                             bool lint) const {
  return require_model()->scan_verilog(verilog_source, lint);
}

std::vector<DetectionReport> NoodleDetector::scan_many(
    std::span<const data::FeatureSample> samples, std::size_t threads) const {
  return require_model()->scan_many(samples, threads);
}

std::vector<DetectionReport> NoodleDetector::scan_verilog_many(
    std::span<const std::string> sources, std::size_t threads, bool lint) const {
  return require_model()->scan_verilog_many(sources, threads, lint);
}

void NoodleDetector::save(const std::filesystem::path& path) const {
  std::shared_ptr<const FittedModel> model = model_.load();
  if (!model) throw std::logic_error("NoodleDetector::save: fit() first");
  model->save(path);
}

void NoodleDetector::load(const std::filesystem::path& path) {
  // FittedModel::load builds and validates the replacement fully before we
  // touch our handle, so a bad snapshot leaves this detector untouched.
  std::shared_ptr<const FittedModel> model = FittedModel::load(path);
  config_ = model->config();
  model_.store(std::move(model));
}

NoodleDetector NoodleDetector::from_snapshot(const std::filesystem::path& path) {
  return NoodleDetector(FittedModel::load(path));
}

bool NoodleDetector::fitted() const noexcept { return model_.load() != nullptr; }

const std::string& NoodleDetector::winning_fusion() const {
  return require_model()->winning_fusion();
}

}  // namespace noodle::core
