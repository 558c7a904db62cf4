#include "core/batch.h"

#include <mutex>

#include "util/parallel_for.h"

namespace noodle::core {

std::vector<ExperimentResult> run_experiment_sweep(
    std::span<const ExperimentConfig> configs, const SweepOptions& options) {
  std::vector<ExperimentResult> results(configs.size());
  std::mutex callback_mutex;
  util::parallel_for(configs.size(), options.threads, [&](std::size_t i) {
    results[i] = run_experiment(configs[i]);
    if (options.on_result) {
      std::lock_guard<std::mutex> lock(callback_mutex);
      options.on_result(i, results[i]);
    }
  });
  return results;
}

std::vector<ExperimentResult> run_experiment_sweep(
    const std::vector<ExperimentConfig>& configs, const SweepOptions& options) {
  return run_experiment_sweep(std::span<const ExperimentConfig>(configs), options);
}

}  // namespace noodle::core
