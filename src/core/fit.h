#pragma once
// The one fit path of NoodleDetector::fit, run_experiment and the benches.
// Callers split the real circuits first; fit_fusion GAN-amplifies only the
// training split, so calibration holds real circuits alone. Mondrian ICP is
// valid only when its calibration points are exchangeable with the points
// it scores, and GAN output is not (Vovk, Gammerman & Shafer, 2005, ch. 4).

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "fusion/models.h"
#include "gan/gan.h"

namespace noodle::core {

/// Fit settings shared by DetectorConfig and ExperimentConfig.
struct FitConfig {
  bool use_gan = true;
  /// Per-class target after amplifying the training split (250 + 250 = the
  /// paper's 500).
  std::size_t gan_target_per_class = 250;
  gan::GanConfig gan;           ///< its seed is derived from `seed`
  fusion::FusionConfig fusion;  ///< its seed is derived from `seed`
  /// Root of the split, GAN and arm seeds.
  std::uint64_t seed = 42;

  FitConfig() {
    fusion.train.epochs = 60;
    fusion.train.patience = 12;
    gan.epochs = 120;
  }

  /// The CNN hyperparameters every arm trains with, seeded from `seed`.
  fusion::FusionConfig arm_config() const {
    fusion::FusionConfig config = fusion;
    config.seed = seed + 13;
    return config;
  }
};

struct FusionFit {
  data::FeatureDataset train;  ///< the training split after GAN amplification
  fusion::EarlyFusionModel early;
  fusion::LateFusionModel late;
  std::string winner;  ///< "early_fusion" or "late_fusion"
};

/// Amplifies `train`, fits and calibrates (on `cal`) both fusion arms, and
/// picks the winner by Brier score on `cal` (Algorithm 2, step 8).
/// Deterministic. Throws std::invalid_argument when a class below the GAN
/// target has fewer than 4 complete rows in `train`.
FusionFit fit_fusion(const FitConfig& config, const data::FeatureDataset& train,
                     const data::FeatureDataset& cal);

}  // namespace noodle::core
