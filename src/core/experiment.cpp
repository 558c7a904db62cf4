#include "core/experiment.h"

#include "gan/augment.h"
#include "metrics/brier.h"

namespace noodle::core {

namespace {

ArmResult evaluate_arm(const fusion::ClassifierArm& arm,
                       const data::FeatureDataset& test) {
  ArmResult result;
  result.name = arm.name();
  const std::vector<fusion::Prediction> predictions = arm.predict_all(test);
  result.probabilities.reserve(predictions.size());
  result.p_values.reserve(predictions.size());
  for (const auto& p : predictions) {
    result.probabilities.push_back(p.probability);
    result.p_values.push_back(p.p_values);
  }
  const std::vector<int> labels = test.labels();
  result.brier = metrics::brier_score(result.probabilities, labels);
  result.consolidated = metrics::consolidated_metrics(result.probabilities, labels);
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  util::Rng rng(config.seed);

  // 1. Corpus.
  data::CorpusSpec corpus_spec = config.corpus;
  corpus_spec.seed = config.seed;
  const std::vector<data::CircuitSample> corpus = data::build_corpus(corpus_spec);

  // 2. Features.
  data::FeatureDataset dataset = data::featurize_corpus(corpus);

  // Optional missing-modality simulation + imputation.
  if (config.missing_graph_rate > 0.0 || config.missing_tabular_rate > 0.0) {
    util::Rng drop_rng = rng.split();
    data::drop_modalities(dataset, config.missing_graph_rate,
                          config.missing_tabular_rate, drop_rng);
    if (config.impute_missing) {
      gan::CrossModalImputer imputer(config.seed + 101);
      imputer.fit(dataset);
      imputer.impute(dataset);
    } else {
      // Drop incomplete samples entirely (the ablation baseline).
      data::FeatureDataset complete;
      for (auto& sample : dataset.samples) {
        if (!sample.graph_missing && !sample.tabular_missing) {
          complete.samples.push_back(std::move(sample));
        }
      }
      dataset = std::move(complete);
    }
  }

  // 3-4. Split first; fit_fusion GAN-amplifies the training split only. The
  // paper amplifies the whole dataset before evaluation; we hold calibration
  // and test to real circuits, because synthetic near-duplicates of training
  // rows let the CNN score by memorization (see DESIGN.md §2).
  util::Rng split_rng = rng.split();
  const data::SplitIndices split = data::stratified_split(
      dataset.labels(), config.train_fraction, config.cal_fraction, split_rng);
  const data::FeatureDataset cal = data::subset(dataset, split.cal);
  const data::FeatureDataset test = data::subset(dataset, split.test);
  const FusionFit fit = fit_fusion(config, data::subset(dataset, split.train), cal);

  const fusion::FusionConfig arm_config = config.arm_config();
  fusion::SingleModalityModel graph_model(fusion::Modality::Graph, arm_config);
  fusion::SingleModalityModel tabular_model(fusion::Modality::Tabular, arm_config);
  graph_model.fit(fit.train, cal);
  tabular_model.fit(fit.train, cal);

  // 5. Evaluate.
  ExperimentResult result;
  result.test_labels = test.labels();
  result.test_size = test.size();
  result.total_after_gan = fit.train.size() + cal.size() + test.size();
  result.graph_only = evaluate_arm(graph_model, test);
  result.tabular_only = evaluate_arm(tabular_model, test);
  result.early_fusion = evaluate_arm(fit.early, test);
  result.late_fusion = evaluate_arm(fit.late, test);
  result.winner = fit.winner;
  return result;
}

}  // namespace noodle::core
