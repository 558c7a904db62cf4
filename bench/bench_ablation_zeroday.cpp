// Ablation A5 — zero-day Trojans (Sec. I motivation): train on corpora
// whose infected samples never use one trigger family, then test on a
// corpus where *all* infections use the held-out family.

#include <array>

#include "bench_common.h"
#include "core/detector.h"
#include "data/dataset.h"
#include "metrics/classification.h"
#include "metrics/roc.h"
#include "util/parallel_for.h"

using namespace noodle;

namespace {

struct ZeroDayResult {
  double auc;
  double sensitivity_at_half;
  std::string served;
};

ZeroDayResult run_holdout(trojan::TriggerKind held_out, std::uint64_t seed) {
  // Training corpus: all triggers except the held-out one.
  data::CorpusSpec train_spec;
  train_spec.design_count = 360;
  train_spec.infected_fraction = 0.3;
  train_spec.seed = seed;
  train_spec.allowed_triggers.clear();
  for (const auto kind : {trojan::TriggerKind::TimeBomb, trojan::TriggerKind::CheatCode,
                          trojan::TriggerKind::Sequence}) {
    if (kind != held_out) train_spec.allowed_triggers.push_back(kind);
  }

  // Test corpus: only the held-out trigger.
  data::CorpusSpec test_spec = train_spec;
  test_spec.design_count = 120;
  test_spec.seed = seed + 1000;
  test_spec.allowed_triggers = {held_out};

  core::DetectorConfig config;
  config.seed = seed;
  core::NoodleDetector detector(config);
  detector.fit(data::build_corpus(train_spec));

  const data::FeatureDataset test = data::featurize_corpus(data::build_corpus(test_spec));
  std::vector<double> probs;
  for (const core::DetectionReport& report : detector.scan_many(test.samples, 1)) {
    probs.push_back(report.probability);
  }
  const auto labels = test.labels();
  return {metrics::roc_auc(probs, labels),
          metrics::confusion_at(probs, labels).sensitivity(), detector.winning_fusion()};
}

}  // namespace

int main() {
  bench::banner("Ablation A5: zero-day trigger family hold-out (served winner)");

  // Each hold-out trains its own models from its own seed chain, so the
  // three of them fan across cores with bit-identical results.
  const std::array<trojan::TriggerKind, 3> kinds = {trojan::TriggerKind::TimeBomb,
                                                    trojan::TriggerKind::CheatCode,
                                                    trojan::TriggerKind::Sequence};
  std::array<ZeroDayResult, 3> results{};
  util::parallel_for(kinds.size(), bench::bench_threads(),
                     [&](std::size_t i) { results[i] = run_holdout(kinds[i], 11); });

  util::CsvTable csv;
  csv.header = {"held_out_trigger", "auc_on_unseen", "sensitivity_at_0.5", "served"};
  std::cout << "held-out trigger   AUC on unseen family   sensitivity@0.5   served\n";
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto kind = kinds[i];
    const ZeroDayResult& result = results[i];
    const std::string name = trojan::to_string(kind);
    std::cout << name << std::string(19 - name.size(), ' ')
              << util::format_fixed(result.auc, 3) << "                  "
              << util::format_fixed(result.sensitivity_at_half, 3) << "             "
              << result.served << "\n";
    csv.rows.push_back({name, util::format_fixed(result.auc, 4),
                        util::format_fixed(result.sensitivity_at_half, 4),
                        result.served});
  }
  std::cout << "\nexpected: above-chance detection of unseen trigger families "
               "(shared structural fingerprints), below the in-distribution "
               "AUC of Fig. 4 — the zero-day gap the paper motivates.\n";
  bench::write_table("ablation_zeroday", csv);
  return 0;
}
