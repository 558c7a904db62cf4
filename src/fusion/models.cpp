#include "fusion/models.h"

#include <algorithm>
#include <stdexcept>

#include "util/binary_io.h"

namespace noodle::fusion {

const char* to_string(Modality modality) noexcept {
  return modality == Modality::Graph ? "graph" : "tabular";
}

std::vector<Prediction> ClassifierArm::predict_all(const data::FeatureDataset& dataset) const {
  std::vector<Prediction> predictions;
  predictions.reserve(dataset.size());
  const std::span<const data::FeatureSample> samples(dataset.samples);
  for (std::size_t begin = 0; begin < samples.size(); begin += kPredictionChunk) {
    const auto chunk = predict_batch(
        samples.subspan(begin, std::min(kPredictionChunk, samples.size() - begin)));
    predictions.insert(predictions.end(), chunk.begin(), chunk.end());
  }
  return predictions;
}

namespace {

const std::vector<double>& modality_of(const data::FeatureSample& sample,
                                       Modality modality) {
  return modality == Modality::Graph ? sample.graph : sample.tabular;
}

void require_complete(const data::FeatureDataset& dataset, const char* who) {
  for (const auto& sample : dataset.samples) {
    if (sample.graph_missing || sample.tabular_missing) {
      throw std::invalid_argument(std::string(who) +
                                  ": dataset has missing modalities; impute first");
    }
  }
}

std::vector<std::vector<double>> modality_rows(const data::FeatureDataset& dataset,
                                               Modality modality) {
  std::vector<std::vector<double>> rows;
  rows.reserve(dataset.size());
  for (const auto& sample : dataset.samples) rows.push_back(modality_of(sample, modality));
  return rows;
}

std::vector<std::vector<double>> joint_rows(const data::FeatureDataset& dataset) {
  std::vector<std::vector<double>> rows;
  rows.reserve(dataset.size());
  for (const auto& sample : dataset.samples) {
    std::vector<double> joint = sample.graph;
    joint.insert(joint.end(), sample.tabular.begin(), sample.tabular.end());
    rows.push_back(std::move(joint));
  }
  return rows;
}

nn::Matrix single_row_matrix(const std::vector<double>& row) {
  nn::Matrix m(1, row.size());
  for (std::size_t i = 0; i < row.size(); ++i) m(0, i) = row[i];
  return m;
}

/// Per-thread scratch for predict_batch: the standardized input matrix,
/// the CNN workspace, and the early arm's concatenation buffer. Thread-local
/// (workspaces must not be shared across threads) and grow-only, so a
/// long-lived scan worker stops allocating once it has seen its largest
/// batch — arms of different widths sharing one thread just grow the
/// buffers to the maximum. Reuse never changes a value: the buffers are
/// fully overwritten each call.
struct BatchScratch {
  nn::Matrix x;
  nn::InferenceWorkspace ws;
  std::vector<double> joint;
};

BatchScratch& thread_batch_scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

/// Shared batched-prediction plumbing for the single/early arms: fill the
/// standardized input matrix row by row (fill_row gets the arm-specific
/// sample-to-row logic plus the reusable concatenation buffer), run one
/// workspace forward, and turn the probabilities into Predictions.
template <typename FillRow>
std::vector<Prediction> predict_batch_with(const feat::Standardizer& scaler,
                                           const nn::Sequential& model,
                                           const cp::MondrianIcp& icp,
                                           std::size_t count, FillRow&& fill_row) {
  std::vector<Prediction> predictions(count);
  if (count == 0) return predictions;
  BatchScratch& scratch = thread_batch_scratch();
  nn::Matrix& x = scratch.x;
  x.reshape(count, scaler.dimension());
  for (std::size_t r = 0; r < count; ++r) fill_row(r, x.row(r), scratch.joint);
  model.reserve_workspace(scratch.ws, x.rows(), x.cols());
  const std::vector<double> probs = nn::predict_proba(model, x, scratch.ws);
  for (std::size_t r = 0; r < count; ++r) {
    predictions[r].probability = probs[r];
    predictions[r].p_values = icp.p_values(probs[r]);
  }
  return predictions;
}

// Per-arm framing inside a snapshot: a one-byte tag so loading a section
// into the wrong arm type (or modality) fails loudly.
constexpr std::uint8_t kArmTagGraph = 0x10;
constexpr std::uint8_t kArmTagTabular = 0x11;
constexpr std::uint8_t kArmTagEarly = 0x20;
constexpr std::uint8_t kArmTagLate = 0x30;

std::uint8_t modality_tag(Modality modality) {
  return modality == Modality::Graph ? kArmTagGraph : kArmTagTabular;
}

void expect_tag(std::istream& is, std::uint8_t expected, const char* who) {
  if (util::read_u8(is) != expected) {
    throw std::runtime_error(std::string(who) + ": arm tag mismatch in snapshot");
  }
}

/// Saves the shared (scaler, CNN, ICP) triple every concrete arm carries.
void save_arm_state(std::ostream& os, const feat::Standardizer& scaler,
                    const nn::Sequential& model, const cp::MondrianIcp& icp) {
  scaler.save(os);
  model.save_weights(os);
  icp.save(os);
}

/// Restores the triple: the CNN is rebuilt from the scaler's input width
/// (the factory is deterministic in architecture; the init weights are
/// overwritten by load_weights), matching how fit() constructs it.
void load_arm_state(std::istream& is, feat::Standardizer& scaler, nn::Sequential& model,
                    cp::MondrianIcp& icp, const char* who) {
  scaler.load(is);
  if (!scaler.fitted()) {
    throw std::runtime_error(std::string(who) + ": snapshot has unfitted scaler");
  }
  util::Rng init_rng(0);
  model = nn::make_cnn(scaler.dimension(), init_rng);
  model.load_weights(is);
  icp.load(is);
}

}  // namespace

nn::Matrix modality_matrix(const data::FeatureDataset& dataset, Modality modality) {
  return nn::Matrix::from_rows(modality_rows(dataset, modality));
}

nn::Matrix joint_matrix(const data::FeatureDataset& dataset) {
  return nn::Matrix::from_rows(joint_rows(dataset));
}

double p_value_probability(const std::array<double, 2>& p_values) {
  const double total = p_values[0] + p_values[1];
  if (total <= 0.0) return 0.5;
  return p_values[1] / total;
}

// ---------------------------------------------------------------------------
// SingleModalityModel
// ---------------------------------------------------------------------------

SingleModalityModel::SingleModalityModel(Modality modality, FusionConfig config)
    : modality_(modality), config_(std::move(config)), icp_(config_.nonconformity) {}

std::string SingleModalityModel::name() const {
  return std::string(to_string(modality_)) + "_only";
}

void SingleModalityModel::fit(const data::FeatureDataset& train,
                              const data::FeatureDataset& cal) {
  require_complete(train, "SingleModalityModel::fit");
  require_complete(cal, "SingleModalityModel::fit");
  const auto rows = modality_rows(train, modality_);
  scaler_.fit(rows);
  const nn::Matrix x = nn::Matrix::from_rows(scaler_.transform_all(rows));
  const std::vector<int> y = train.labels();

  util::Rng rng(config_.seed + (modality_ == Modality::Graph ? 0u : 1u));
  model_ = nn::make_cnn(x.cols(), rng);
  nn::TrainConfig train_config = config_.train;
  train_config.seed = config_.seed * 2654435761u + 1;
  nn::train_binary_classifier(model_, x, y, train_config);

  // Calibrate the Mondrian ICP on held-out predictions.
  const nn::Matrix cal_x = nn::Matrix::from_rows(
      scaler_.transform_all(modality_rows(cal, modality_)));
  const std::vector<double> cal_probs = nn::predict_proba(model_, cal_x);
  const std::vector<int> cal_y = cal.labels();
  icp_.calibrate(cal_probs, cal_y);
}

Prediction SingleModalityModel::predict(const data::FeatureSample& sample) const {
  const std::vector<double> row = scaler_.transform(modality_of(sample, modality_));
  const std::vector<double> probs = nn::predict_proba(model_, single_row_matrix(row));
  Prediction prediction;
  prediction.probability = probs.front();
  prediction.p_values = icp_.p_values(prediction.probability);
  return prediction;
}

std::vector<Prediction> SingleModalityModel::predict_batch(
    std::span<const data::FeatureSample> samples) const {
  return predict_batch_with(
      scaler_, model_, icp_, samples.size(),
      [&](std::size_t r, std::span<double> row, std::vector<double>&) {
        scaler_.transform_into(modality_of(samples[r], modality_), row);
      });
}

void SingleModalityModel::save(std::ostream& os) const {
  util::write_u8(os, modality_tag(modality_));
  save_arm_state(os, scaler_, model_, icp_);
}

void SingleModalityModel::load(std::istream& is) {
  expect_tag(is, modality_tag(modality_), "SingleModalityModel::load");
  load_arm_state(is, scaler_, model_, icp_, "SingleModalityModel::load");
}

// ---------------------------------------------------------------------------
// EarlyFusionModel
// ---------------------------------------------------------------------------

EarlyFusionModel::EarlyFusionModel(FusionConfig config)
    : config_(std::move(config)), icp_(config_.nonconformity) {}

void EarlyFusionModel::fit(const data::FeatureDataset& train,
                           const data::FeatureDataset& cal) {
  require_complete(train, "EarlyFusionModel::fit");
  require_complete(cal, "EarlyFusionModel::fit");
  const auto rows = joint_rows(train);
  scaler_.fit(rows);
  const nn::Matrix x = nn::Matrix::from_rows(scaler_.transform_all(rows));
  const std::vector<int> y = train.labels();

  util::Rng rng(config_.seed + 2);
  model_ = nn::make_cnn(x.cols(), rng);
  nn::TrainConfig train_config = config_.train;
  train_config.seed = config_.seed * 2654435761u + 2;
  nn::train_binary_classifier(model_, x, y, train_config);

  const nn::Matrix cal_x =
      nn::Matrix::from_rows(scaler_.transform_all(joint_rows(cal)));
  const std::vector<double> cal_probs = nn::predict_proba(model_, cal_x);
  const std::vector<int> cal_y = cal.labels();
  icp_.calibrate(cal_probs, cal_y);
}

Prediction EarlyFusionModel::predict(const data::FeatureSample& sample) const {
  std::vector<double> joint = sample.graph;
  joint.insert(joint.end(), sample.tabular.begin(), sample.tabular.end());
  const std::vector<double> row = scaler_.transform(joint);
  const std::vector<double> probs = nn::predict_proba(model_, single_row_matrix(row));
  Prediction prediction;
  prediction.probability = probs.front();
  prediction.p_values = icp_.p_values(prediction.probability);
  return prediction;
}

std::vector<Prediction> EarlyFusionModel::predict_batch(
    std::span<const data::FeatureSample> samples) const {
  return predict_batch_with(
      scaler_, model_, icp_, samples.size(),
      [&](std::size_t r, std::span<double> row, std::vector<double>& joint) {
        joint.assign(samples[r].graph.begin(), samples[r].graph.end());
        joint.insert(joint.end(), samples[r].tabular.begin(), samples[r].tabular.end());
        scaler_.transform_into(joint, row);
      });
}

void EarlyFusionModel::save(std::ostream& os) const {
  util::write_u8(os, kArmTagEarly);
  save_arm_state(os, scaler_, model_, icp_);
}

void EarlyFusionModel::load(std::istream& is) {
  expect_tag(is, kArmTagEarly, "EarlyFusionModel::load");
  load_arm_state(is, scaler_, model_, icp_, "EarlyFusionModel::load");
}

// ---------------------------------------------------------------------------
// LateFusionModel
// ---------------------------------------------------------------------------

LateFusionModel::LateFusionModel(FusionConfig config)
    : config_(std::move(config)),
      graph_arm_(Modality::Graph, config_),
      tabular_arm_(Modality::Tabular, config_) {}

void LateFusionModel::fit(const data::FeatureDataset& train,
                          const data::FeatureDataset& cal) {
  graph_arm_.fit(train, cal);
  tabular_arm_.fit(train, cal);
}

LateFusionDetail LateFusionModel::predict_detail(const data::FeatureSample& sample) const {
  return fuse(graph_arm_.predict(sample), tabular_arm_.predict(sample));
}

std::vector<Prediction> LateFusionModel::predict_batch(
    std::span<const data::FeatureSample> samples) const {
  const std::vector<Prediction> graph_predictions = graph_arm_.predict_batch(samples);
  const std::vector<Prediction> tabular_predictions =
      tabular_arm_.predict_batch(samples);
  std::vector<Prediction> predictions(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    predictions[i] = fuse(graph_predictions[i], tabular_predictions[i]).fused;
  }
  return predictions;
}

LateFusionDetail LateFusionModel::fuse(const Prediction& graph_prediction,
                                       const Prediction& tabular_prediction) const {
  LateFusionDetail detail;
  detail.per_modality = {graph_prediction.p_values, tabular_prediction.p_values};
  for (const int label : {0, 1}) {
    const std::array<double, 2> per_modality = {
        graph_prediction.p_values[static_cast<std::size_t>(label)],
        tabular_prediction.p_values[static_cast<std::size_t>(label)]};
    detail.fused.p_values[static_cast<std::size_t>(label)] =
        cp::combine_p_values(per_modality, config_.combiner);
  }
  // Decision-level probability: normalized fused p-values blended with the
  // average model probability; the conformal part dominates but the model
  // average keeps the estimate sharp when both p-values saturate.
  const double p_norm = p_value_probability(detail.fused.p_values);
  const double model_avg =
      (graph_prediction.probability + tabular_prediction.probability) / 2.0;
  const double w = config_.late_probability_blend;
  detail.fused.probability = w * p_norm + (1.0 - w) * model_avg;
  return detail;
}

Prediction LateFusionModel::predict(const data::FeatureSample& sample) const {
  LateFusionDetail detail = predict_detail(sample);
  last_p_values_ = detail.per_modality;
  return detail.fused;
}

void LateFusionModel::save(std::ostream& os) const {
  util::write_u8(os, kArmTagLate);
  graph_arm_.save(os);
  tabular_arm_.save(os);
}

void LateFusionModel::load(std::istream& is) {
  expect_tag(is, kArmTagLate, "LateFusionModel::load");
  graph_arm_.load(is);
  tabular_arm_.load(is);
}

}  // namespace noodle::fusion
