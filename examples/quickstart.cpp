// Quickstart: train a NoodleDetector on a synthetic Trust-Hub-style corpus
// and scan two circuits — one clean, one with a freshly planted Trojan.
//
//   ./build/example_quickstart [snapshot-file]
//
// With a snapshot argument, the detector is loaded from the file when it
// exists and saved to it after the first fit — the train-once, scan-forever
// workflow (run it twice: the second run skips training entirely).

#include <filesystem>
#include <iostream>

#include "core/detector.h"
#include "data/decoys.h"
#include "data/designgen.h"
#include "trojan/inserter.h"
#include "util/csv.h"
#include "verilog/parser.h"
#include "verilog/printer.h"

using namespace noodle;

namespace {

void report(const std::string& label, const core::DetectionReport& r) {
  std::cout << label << "\n"
            << "  verdict      : "
            << (r.predicted_label == data::kTrojanInfected ? "TROJAN-INFECTED"
                                                           : "trojan-free")
            << "\n"
            << "  P(infected)  : " << util::format_fixed(r.probability, 3) << "\n"
            << "  p-values     : p(TF)=" << util::format_fixed(r.p_values[0], 3)
            << "  p(TI)=" << util::format_fixed(r.p_values[1], 3) << "\n"
            << "  region @90%  : "
            << (r.region.is_uncertain()
                    ? "{TF, TI}  -> uncertain, escalate to manual review"
                    : (r.region.is_empty()
                           ? "{} (outlier for both classes)"
                           : (r.region.contains[1] ? "{TI}" : "{TF}")))
            << "\n"
            << "  confidence   : " << util::format_fixed(r.region.confidence, 3)
            << "  credibility: " << util::format_fixed(r.region.credibility, 3)
            << "\n"
            << "  fusion used  : " << r.fusion_used << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "NOODLE quickstart: uncertainty-aware hardware Trojan detection\n\n";

  // 1. Train — or reload a previous fit. fit_default() builds a synthetic
  //    corpus (12 design families, ~30% Trojan-infected), splits off a
  //    calibration set, GAN-amplifies the training split, trains both
  //    fusion arms, and picks the winner by calibration Brier score; a
  //    snapshot makes that cost a one-time event.
  const std::filesystem::path snapshot = argc > 1 ? argv[1] : "";
  core::DetectorConfig config;
  config.seed = 42;
  core::NoodleDetector detector(config);
  if (!snapshot.empty() && std::filesystem::exists(snapshot)) {
    std::cout << "loading fitted detector from " << snapshot.string() << "..."
              << std::flush;
    detector.load(snapshot);
  } else {
    std::cout << "training detector on the default synthetic corpus..." << std::flush;
    detector.fit_default();
    if (!snapshot.empty()) {
      detector.save(snapshot);
      std::cout << " (snapshot saved to " << snapshot.string() << ")" << std::flush;
    }
  }
  std::cout << " done (winner: " << detector.winning_fusion() << ")\n\n";

  // 2. A clean circuit: a fresh LFSR the detector has never seen, decorated
  //    with the benign watchdog/decode structure real IP carries (the same
  //    background the training corpus has — see data/decoys.h).
  util::Rng rng(2024);
  verilog::Module clean = verilog::parse_module(
      data::generate_design(data::DesignFamily::Lfsr, "prng_unit", rng));
  util::Rng decoy_rng(31);
  data::add_benign_decoys(clean, decoy_rng);
  const std::string clean_verilog = verilog::print_module(clean);
  report("[clean LFSR]", detector.scan_verilog(clean_verilog));

  // 3. The same design with a time-bomb Trojan leaking internal state.
  verilog::Module infected = clean.clone();
  trojan::TrojanConfig trojan_config;
  trojan_config.trigger = trojan::TriggerKind::TimeBomb;
  trojan_config.payload = trojan::PayloadKind::Leak;
  util::Rng trojan_rng(7);
  const trojan::TrojanReport planted =
      trojan::insert_trojan(infected, trojan_config, trojan_rng);
  std::cout << "(planted a " << trojan::to_string(planted.trigger) << "/"
            << trojan::to_string(planted.payload) << " Trojan on output '"
            << planted.victim_output << "')\n";
  report("[infected LFSR]", detector.scan_verilog(verilog::print_module(infected)));

  return 0;
}
