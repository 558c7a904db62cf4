// Fig. 2 — Brier score distribution with mean interval, early (a) vs late
// (b) fusion. The paper shows the spread of the Brier score across runs;
// we resample the whole experiment over independent seeds/splits and render
// the distribution as box plots with the mean +/- 95% CI.

#include <optional>

#include "bench_common.h"
#include "util/ascii_plot.h"
#include "util/stats.h"
#include "util/string_util.h"

using namespace noodle;

int main(int argc, char** argv) {
  std::size_t runs = 12;
  if (argc > 1) {
    const std::optional<std::uint64_t> parsed = util::parse_unsigned(argv[1]);
    if (!parsed || *parsed == 0) {
      std::cerr << "usage: " << argv[0]
                << " [RUNS]  (RUNS: positive integer, default 12)\n";
      return 2;
    }
    runs = *parsed;
  }
  bench::banner("Fig. 2: Brier score distribution with mean interval (" +
                std::to_string(runs) + " runs)");

  std::vector<core::ExperimentConfig> configs;
  for (std::size_t run = 0; run < runs; ++run) {
    core::ExperimentConfig config = bench::paper_config();
    config.seed = run + 1;
    configs.push_back(config);
  }
  const std::vector<core::ExperimentResult> results = bench::run_sweep(configs);

  std::vector<double> graph, tabular, early, late, winner;
  util::CsvTable csv;
  csv.header = {"seed", "graph", "tabular", "early_fusion", "late_fusion", "winner"};
  for (std::size_t run = 0; run < runs; ++run) {
    const core::ExperimentResult& result = results[run];
    graph.push_back(result.graph_only.brier);
    tabular.push_back(result.tabular_only.brier);
    early.push_back(result.early_fusion.brier);
    late.push_back(result.late_fusion.brier);
    winner.push_back(result.winning_arm().brier);
    csv.rows.push_back({std::to_string(configs[run].seed),
                        util::format_fixed(result.graph_only.brier, 4),
                        util::format_fixed(result.tabular_only.brier, 4),
                        util::format_fixed(result.early_fusion.brier, 4),
                        util::format_fixed(result.late_fusion.brier, 4),
                        result.winner});
  }
  std::cout << "\n";

  const std::vector<std::string> labels = {"(a) early fusion", "(b) late fusion",
                                           "graph only", "tabular only"};
  const std::vector<std::vector<double>> samples = {early, late, graph, tabular};
  std::cout << util::ascii_box_plot(labels, samples, 56) << "\n";

  const util::Summary se = util::summarize(early);
  const util::Summary sl = util::summarize(late);
  std::cout << "early fusion: mean " << util::format_fixed(se.mean, 4) << " +/- "
            << util::format_fixed(se.ci95_half_width, 4) << " (95% CI), paper 0.1685\n";
  std::cout << "late fusion:  mean " << util::format_fixed(sl.mean, 4) << " +/- "
            << util::format_fixed(sl.ci95_half_width, 4) << " (95% CI), paper 0.1589\n";

  std::size_t late_wins = 0, winner_beats_graph = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    if (late[i] <= early[i]) ++late_wins;
    if (winner[i] < graph[i]) ++winner_beats_graph;
  }
  std::cout << "late fusion wins " << late_wins << "/" << runs
            << " runs (paper: neither fusion deterministically superior; "
               "Algorithm 2 picks per-run winner)\n";
  std::cout << "picked winner (by calibration Brier) beats graph-only in "
            << winner_beats_graph << "/" << runs << " runs: mean Brier "
            << util::format_fixed(util::summarize(winner).mean, 4) << " vs graph-only "
            << util::format_fixed(util::summarize(graph).mean, 4) << "\n";

  bench::write_table("fig2_brier_distribution", csv);
  return 0;
}
