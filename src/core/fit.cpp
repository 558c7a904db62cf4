#include "core/fit.h"

#include "gan/augment.h"
#include "metrics/brier.h"

namespace noodle::core {

FusionFit fit_fusion(const FitConfig& config, const data::FeatureDataset& train,
                     const data::FeatureDataset& cal) {
  gan::GanConfig gan_config = config.gan;
  gan_config.seed = config.seed + 7;
  const std::size_t target = config.gan_target_per_class;
  FusionFit fit{config.use_gan ? gan::augment_with_gan(train, target, gan_config) : train,
                fusion::EarlyFusionModel(config.arm_config()),
                fusion::LateFusionModel(config.arm_config()), ""};
  fit.early.fit(fit.train, cal);
  fit.late.fit(fit.train, cal);

  const std::vector<int> labels = cal.labels();
  auto cal_brier = [&cal, &labels](const fusion::ClassifierArm& arm) {
    std::vector<double> probs;
    for (const auto& p : arm.predict_all(cal)) probs.push_back(p.probability);
    return metrics::brier_score(probs, labels);
  };
  fit.winner =
      cal_brier(fit.late) <= cal_brier(fit.early) ? "late_fusion" : "early_fusion";
  return fit;
}

}  // namespace noodle::core
