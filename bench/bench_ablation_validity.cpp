// Ablation A4 — conformal validity: empirical error rate of the prediction
// regions vs significance level, overall and per class. Mondrian (label-
// conditional) calibration must keep even the rare TI class's error near
// the nominal level (Sec. II-C's claim).

#include "bench_common.h"
#include "cp/icp.h"

using namespace noodle;

int main() {
  bench::banner("Ablation A4: conformal validity across significance levels");

  const core::ExperimentResult result = bench::run_one(bench::paper_config());
  const core::ArmResult& arm = result.late_fusion;

  util::CsvTable csv;
  csv.header = {"significance", "error_rate", "error_TF", "error_TI",
                "singletons", "uncertain", "empty", "avg_region_size"};
  std::cout << "alpha   err(all)  err(TF)  err(TI)  single  uncertain  empty  avg|R|\n";
  for (const double alpha : {0.05, 0.10, 0.15, 0.20, 0.30}) {
    const cp::ConformalStats stats =
        cp::evaluate_regions(arm.p_values, result.test_labels, 1.0 - alpha);
    std::cout << util::format_fixed(alpha, 2) << "    "
              << util::format_fixed(stats.error_rate(), 3) << "     "
              << util::format_fixed(stats.error_rate_for(0), 3) << "    "
              << util::format_fixed(stats.error_rate_for(1), 3) << "    "
              << stats.singletons << "      " << stats.uncertain << "         "
              << stats.empty << "      "
              << util::format_fixed(stats.average_region_size, 2) << "\n";
    csv.rows.push_back({util::format_fixed(alpha, 2),
                        util::format_fixed(stats.error_rate(), 4),
                        util::format_fixed(stats.error_rate_for(0), 4),
                        util::format_fixed(stats.error_rate_for(1), 4),
                        std::to_string(stats.singletons),
                        std::to_string(stats.uncertain),
                        std::to_string(stats.empty),
                        util::format_fixed(stats.average_region_size, 3)});
  }
  std::cout << "\nexpected: error rate tracks (stays at or below) alpha for both "
               "classes; lower alpha => more uncertain (two-label) regions.\n"
               "note: fused p-values via Fisher assume cross-modality "
               "independence, so mild deviations are expected (documented in "
               "DESIGN.md §2).\n";
  bench::write_table("ablation_validity", csv);
  return 0;
}
