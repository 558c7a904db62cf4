#include "core/fitted_model.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "data/dataset.h"
#include "feat/featurize.h"
#include "serve/snapshot.h"
#include "util/binary_io.h"
#include "util/parallel_for.h"

namespace noodle::core {

FittedModel::FittedModel(DetectorConfig config, fusion::EarlyFusionModel early,
                         fusion::LateFusionModel late, std::string winner)
    : config_(std::move(config)),
      early_(std::move(early)),
      late_(std::move(late)),
      winner_(std::move(winner)) {
  if (winner_ != "early_fusion" && winner_ != "late_fusion") {
    throw std::invalid_argument("FittedModel: unknown winning fusion '" + winner_ + "'");
  }
  // Content digest over the snapshot serialization: the same fitted state
  // (fit in-process, or loaded from an archive) always hashes identically,
  // so disk-cache keys survive restarts. One extra serialization per
  // construction — construction happens once per fit or load, never on a
  // scan path.
  std::ostringstream image(std::ios::binary);
  save(image);
  digest_ = util::fnv1a64(image.str());
}

namespace {

DetectionReport report_from(const fusion::Prediction& prediction,
                            const DetectorConfig& config, const std::string& winner) {
  DetectionReport report;
  report.probability = prediction.probability;
  report.p_values = prediction.p_values;
  report.region = cp::region_at_confidence(prediction.p_values, config.confidence_level);
  report.predicted_label = report.region.point_prediction;
  report.fusion_used = winner;
  return report;
}

}  // namespace

lint::OwnedFindings lint_last_parse(feat::FeaturizeWorkspace& workspace) {
  const verilog::fast::Module* module = workspace.last_module();
  if (module == nullptr) return {};
  const util::SymbolTable& symbols = workspace.last_graph().symbols();
  return lint::to_owned(
      lint::thread_workspace().run(*module, workspace.last_graph(), symbols), symbols);
}

void DetectionReport::attach_lint(lint::OwnedFindings findings) {
  lint_ran = true;
  // Each finding cites a source construct: 2^32 of them would take
  // gigabytes of RTL (a request line carries at most 1 MiB).
  lint_count = static_cast<std::uint32_t>(findings.total());
  lint_findings = std::move(findings.first);
}

DetectionReport FittedModel::scan_features(const data::FeatureSample& sample) const {
  // predict_detail() / the early arm's predict() are stateless on a fitted
  // model, which is what makes concurrent scans on one handle sound.
  fusion::Prediction prediction = winner_ == "late_fusion"
                                      ? late_.predict_detail(sample).fused
                                      : early_.predict(sample);
  return report_from(prediction, config_, winner_);
}

DetectionReport FittedModel::scan_verilog(const std::string& verilog_source,
                                          bool lint) const {
  // The thread's reusable workspace featurizes straight from the text view:
  // no CircuitSample copy, no per-node heap traffic.
  feat::FeaturizeWorkspace& workspace = feat::thread_workspace();
  const data::FeatureSample sample = data::featurize_source(verilog_source, workspace);
  lint::OwnedFindings findings;
  if (lint) findings = lint_last_parse(workspace);
  DetectionReport report = scan_features(sample);
  if (lint) report.attach_lint(std::move(findings));
  return report;
}

std::vector<DetectionReport> FittedModel::scan_many(
    std::span<const data::FeatureSample> samples, std::size_t threads) const {
  std::vector<DetectionReport> reports(samples.size());
  if (samples.empty()) return reports;
  // Fixed-size chunks (not per-thread splits) keep the work decomposition
  // independent of the thread count; each chunk runs one batched forward
  // per CNN via predict_batch, which is bit-identical to per-sample
  // scan_features at any chunk boundary — so verdicts are the same at any
  // thread count AND match sequential scans, as the benches assert.
  constexpr std::size_t kChunk = fusion::kPredictionChunk;
  const std::size_t chunk_count = (samples.size() + kChunk - 1) / kChunk;
  const fusion::ClassifierArm& arm =
      winner_ == "late_fusion" ? static_cast<const fusion::ClassifierArm&>(late_)
                               : static_cast<const fusion::ClassifierArm&>(early_);
  util::parallel_for(chunk_count, threads, [&](std::size_t chunk) {
    const std::size_t begin = chunk * kChunk;
    const std::size_t count = std::min(kChunk, samples.size() - begin);
    const std::vector<fusion::Prediction> predictions =
        arm.predict_batch(samples.subspan(begin, count));
    for (std::size_t j = 0; j < count; ++j) {
      reports[begin + j] = report_from(predictions[j], config_, winner_);
    }
  });
  return reports;
}

std::vector<DetectionReport> FittedModel::scan_verilog_many(
    std::span<const std::string> sources, std::size_t threads, bool lint) const {
  // Featurize in parallel (parsing dominates), then hand the whole batch to
  // the batched scan path. Each worker featurizes through its own
  // thread-local FeaturizeWorkspace (never shared): one arena/token-buffer/
  // intern-pool per worker, warm for the rest of the call instead of
  // re-allocating per sample. parallel_for starts its threads per call, so
  // the workspaces are rebuilt across calls; the truly persistent steady
  // state lives on DetectionService's long-lived worker threads. The lint
  // pass rides the same workers, right after each featurize while the
  // worker's arena still holds that parse.
  std::vector<data::FeatureSample> samples(sources.size());
  std::vector<lint::OwnedFindings> findings(lint ? sources.size() : 0);
  util::parallel_for(sources.size(), threads, [&](std::size_t i) {
    feat::FeaturizeWorkspace& workspace = feat::thread_workspace();
    samples[i] = data::featurize_source(sources[i], workspace);
    if (lint) findings[i] = lint_last_parse(workspace);
  });
  std::vector<DetectionReport> reports = scan_many(samples, threads);
  if (lint) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      reports[i].attach_lint(std::move(findings[i]));
    }
  }
  return reports;
}

namespace {

// Every DetectorConfig field is serialized so a loaded model is
// indistinguishable from the fitted original (the fusion sub-config in
// particular drives predict-time behaviour: combiner and probability blend).
void write_config(std::ostream& os, const DetectorConfig& config) {
  util::write_f64(os, config.train_fraction);
  util::write_u8(os, config.use_gan ? 1 : 0);
  util::write_u64(os, config.gan_target_per_class);
  util::write_f64(os, config.confidence_level);
  util::write_u64(os, config.seed);

  util::write_u64(os, config.gan.latent_dim);
  util::write_u64(os, config.gan.hidden);
  util::write_u64(os, config.gan.epochs);
  util::write_u64(os, config.gan.batch_size);
  util::write_f64(os, config.gan.generator_lr);
  util::write_f64(os, config.gan.discriminator_lr);
  util::write_f64(os, config.gan.sample_noise);
  util::write_u64(os, config.gan.seed);

  util::write_u64(os, config.fusion.train.epochs);
  util::write_u64(os, config.fusion.train.batch_size);
  util::write_f64(os, config.fusion.train.learning_rate);
  util::write_f64(os, config.fusion.train.weight_decay);
  util::write_f64(os, config.fusion.train.validation_fraction);
  util::write_u64(os, config.fusion.train.patience);
  util::write_u64(os, config.fusion.train.seed);
  util::write_u8(os, static_cast<std::uint8_t>(config.fusion.nonconformity));
  util::write_u8(os, static_cast<std::uint8_t>(config.fusion.combiner));
  util::write_f64(os, config.fusion.late_probability_blend);
  util::write_u64(os, config.fusion.seed);
}

DetectorConfig read_config(std::istream& is) {
  DetectorConfig config;
  config.train_fraction = util::read_f64(is);
  config.use_gan = util::read_u8(is) != 0;
  config.gan_target_per_class = util::read_u64(is);
  config.confidence_level = util::read_f64(is);
  config.seed = util::read_u64(is);

  config.gan.latent_dim = util::read_u64(is);
  config.gan.hidden = util::read_u64(is);
  config.gan.epochs = util::read_u64(is);
  config.gan.batch_size = util::read_u64(is);
  config.gan.generator_lr = util::read_f64(is);
  config.gan.discriminator_lr = util::read_f64(is);
  config.gan.sample_noise = util::read_f64(is);
  config.gan.seed = util::read_u64(is);

  config.fusion.train.epochs = util::read_u64(is);
  config.fusion.train.batch_size = util::read_u64(is);
  config.fusion.train.learning_rate = util::read_f64(is);
  config.fusion.train.weight_decay = util::read_f64(is);
  config.fusion.train.validation_fraction = util::read_f64(is);
  config.fusion.train.patience = util::read_u64(is);
  config.fusion.train.seed = util::read_u64(is);
  const std::uint8_t nonconformity = util::read_u8(is);
  if (nonconformity > static_cast<std::uint8_t>(cp::NonconformityKind::Margin)) {
    throw serve::SnapshotError("snapshot: unknown nonconformity kind");
  }
  config.fusion.nonconformity = static_cast<cp::NonconformityKind>(nonconformity);
  const std::uint8_t combiner = util::read_u8(is);
  if (combiner > static_cast<std::uint8_t>(cp::CombinationMethod::Max)) {
    throw serve::SnapshotError("snapshot: unknown p-value combiner");
  }
  config.fusion.combiner = static_cast<cp::CombinationMethod>(combiner);
  config.fusion.late_probability_blend = util::read_f64(is);
  config.fusion.seed = util::read_u64(is);
  return config;
}

}  // namespace

void FittedModel::save(std::ostream& os) const {
  serve::SnapshotWriter writer;
  write_config(writer.begin_section("CONF"), config_);
  early_.save(writer.begin_section("EARL"));
  late_.save(writer.begin_section("LATE"));
  // META: winner string, then the feature definition the model was fitted
  // against. Pre-PR 8 archives end after the winner — the loader treats
  // that as feature version 1.
  std::ostream& meta = writer.begin_section("META");
  util::write_string(meta, winner_);
  util::write_u32(meta, feat::kFeatureVersion);
  writer.write_to(os);
}

void FittedModel::save(const std::filesystem::path& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw serve::SnapshotError("snapshot: cannot open " + path.string() + " for write");
  }
  save(os);
}

std::shared_ptr<const FittedModel> FittedModel::load(const std::filesystem::path& path) {
  serve::SnapshotReader reader = serve::SnapshotReader::from_file(path);
  try {
    DetectorConfig config = read_config(reader.section("CONF"));
    fusion::EarlyFusionModel early(config.fusion);
    fusion::LateFusionModel late(config.fusion);
    early.load(reader.section("EARL"));
    late.load(reader.section("LATE"));
    std::istream& meta = reader.section("META");
    std::string winner = util::read_string(meta);
    if (winner != "early_fusion" && winner != "late_fusion") {
      throw serve::SnapshotError("snapshot: unknown winning fusion '" + winner + "'");
    }
    // Feature-version gate: a model fitted against one feature definition
    // must never be served against another (the sketch values feeding the
    // graph CNN would silently shift). Archives written before the version
    // was recorded are feature version 1 by definition.
    std::uint32_t feature_version = 1;
    try {
      feature_version = util::read_u32(meta);
    } catch (const std::runtime_error&) {
      // Pre-PR 8 META ends after the winner string.
    }
    if (feature_version != feat::kFeatureVersion) {
      throw serve::SnapshotError(
          "snapshot: fitted against feature version " +
          std::to_string(feature_version) + " but this build computes version " +
          std::to_string(feat::kFeatureVersion) + "; refit or use a matching build");
    }
    return std::make_shared<const FittedModel>(std::move(config), std::move(early),
                                               std::move(late), std::move(winner));
  } catch (const serve::SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    // Component loaders throw runtime_error on framing problems and
    // invalid_argument on impossible shapes (e.g. a CNN input width the
    // factory rejects); either way the file is a bad snapshot.
    throw serve::SnapshotError(std::string("snapshot: ") + e.what() + " in " +
                               path.string());
  }
}

}  // namespace noodle::core
