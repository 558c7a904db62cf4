// Fig. 3 — Confidence calibration curve (reliability diagram) plus the
// sharpness histogram of the predicted probabilities on the test set.
// The paper shows an imperfectly calibrated model (points off the diagonal)
// due to class imbalance, over 109 test predictions.

#include "bench_common.h"
#include "metrics/calibration.h"
#include "util/ascii_plot.h"

using namespace noodle;

int main() {
  bench::banner("Fig. 3: Confidence calibration curve");

  const core::ExperimentResult result = bench::run_one(bench::paper_config());
  const core::ArmResult& arm = result.winning_arm();
  const metrics::CalibrationCurve curve =
      metrics::calibration_curve(arm.probabilities, result.test_labels, 10);

  std::cout << "model: " << arm.name << ", test predictions: " << result.test_size
            << " (paper: 109)\n\n";

  std::vector<double> xs, ys;
  util::CsvTable csv;
  csv.header = {"mean_predicted", "observed_rate", "count"};
  for (const auto& bin : curve.bins) {
    xs.push_back(bin.mean_predicted);
    ys.push_back(bin.observed_rate);
    csv.rows.push_back({util::format_fixed(bin.mean_predicted, 4),
                        util::format_fixed(bin.observed_rate, 4),
                        std::to_string(bin.count)});
  }
  std::cout << "reliability diagram (.: perfect calibration diagonal):\n";
  std::cout << util::ascii_xy_plot(xs, ys, 51, 17, '*', /*draw_diagonal=*/true);

  std::cout << "\nsharpness histogram (predicted probability, " << result.test_size
            << " samples):\n";
  std::vector<std::string> bin_labels;
  std::vector<double> bin_counts;
  for (std::size_t b = 0; b < curve.sharpness_histogram.size(); ++b) {
    std::string label = "[";
    label += util::format_fixed(0.1 * static_cast<double>(b), 1);
    label += ',';
    label += util::format_fixed(0.1 * static_cast<double>(b + 1), 1);
    label += ')';
    bin_labels.push_back(std::move(label));
    bin_counts.push_back(static_cast<double>(curve.sharpness_histogram[b]));
  }
  std::cout << util::ascii_bar_chart(bin_labels, bin_counts, 40);

  std::cout << "\nexpected calibration error: "
            << util::format_fixed(curve.expected_calibration_error, 4)
            << "  max: " << util::format_fixed(curve.max_calibration_error, 4)
            << "  sharpness (variance): " << util::format_fixed(curve.sharpness, 4)
            << "\n";
  std::cout << "shape check: imperfect calibration expected on the imbalanced "
               "TI class (paper Fig. 3): "
            << (curve.expected_calibration_error > 0.01 ? "OK" : "surprisingly perfect")
            << "\n";

  bench::write_table("fig3_calibration", csv);
  util::CsvTable hist_csv;
  hist_csv.header = {"bin_low", "bin_high", "count"};
  for (std::size_t b = 0; b < curve.sharpness_histogram.size(); ++b) {
    hist_csv.rows.push_back({util::format_fixed(0.1 * static_cast<double>(b), 1),
                             util::format_fixed(0.1 * static_cast<double>(b + 1), 1),
                             std::to_string(curve.sharpness_histogram[b])});
  }
  bench::write_table("fig3_sharpness_histogram", hist_csv);
  return 0;
}
