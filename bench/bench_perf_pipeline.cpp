// Throughput micro-benchmarks (google-benchmark) for what perfbench's
// traced replay and end-to-end runs do not measure: lint, CNN forward and
// training, Mondrian ICP p-values, the parallel experiment sweep,
// snapshot save/load, registry resolve and hot reload, and the metrics
// hot path. Lex, parse, graph, sketch, tabular, featurize, scan_many,
// service and TCP round-trip rows live in perfbench (perfbench/README.md).
// The sweep must produce bit-identical results at every thread count, and
// the benchmark aborts if it does not.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>

#include "core/batch.h"
#include "core/detector.h"
#include "cp/icp.h"
#include "data/corpus.h"
#include "data/dataset.h"
#include "feat/featurize.h"
#include "lint/lint.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "serve/registry.h"

namespace {

using namespace noodle;

const std::vector<data::CircuitSample>& corpus() {
  static const auto circuits = [] {
    data::CorpusSpec spec;
    spec.design_count = 48;
    spec.infected_fraction = 0.3;
    spec.seed = 7;
    return data::build_corpus(spec);
  }();
  return circuits;
}

void BM_Lint(benchmark::State& state) {
  // Per-circuit cost of the static-analysis pass over the 48-circuit
  // corpus, measured on warm workspaces the way the service runs it:
  // parse + graph via FeaturizeWorkspace, then LintWorkspace::run on the
  // resident arena AST (allocation-free at steady state).
  const auto& circuits = corpus();
  feat::FeaturizeWorkspace workspace;
  lint::LintWorkspace lint_workspace;
  std::vector<double> graph_out, tabular_out;
  workspace.featurize(circuits[0].verilog, graph_out, tabular_out);  // warm-up
  std::size_t i = 0;
  std::size_t findings = 0;
  for (auto _ : state) {
    const auto& circuit = circuits[i++ % circuits.size()];
    workspace.featurize(circuit.verilog, graph_out, tabular_out);
    const auto span = lint_workspace.run(*workspace.last_module(),
                                         workspace.last_graph(),
                                         workspace.last_graph().symbols());
    findings += span.size();
    benchmark::DoNotOptimize(span.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["findings_per_circuit"] =
      benchmark::Counter(static_cast<double>(findings),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Lint);

void BM_CnnForward(benchmark::State& state) {
  util::Rng rng(3);
  nn::Sequential model = nn::make_cnn(40, rng);
  nn::Matrix batch(static_cast<std::size_t>(state.range(0)), 40);
  for (double& v : batch.data()) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(batch, false));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CnnForward)->Arg(1)->Arg(16)->Arg(128);

void BM_CnnInferWorkspace(benchmark::State& state) {
  // The allocation-free engine path: same math as BM_CnnForward (results
  // are bit-identical, asserted below), but zero heap allocations per batch
  // once the workspace is warm.
  util::Rng rng(3);
  const nn::Sequential model = nn::make_cnn(40, rng);
  nn::Matrix batch(static_cast<std::size_t>(state.range(0)), 40);
  for (double& v : batch.data()) v = rng.normal();
  nn::InferenceWorkspace ws;
  model.reserve_workspace(ws, batch.rows(), batch.cols());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.infer(batch, ws));
  }
  if (model.infer(batch, ws).data() != model.infer(batch).data()) {
    state.SkipWithError("workspace inference diverged from the allocating path");
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CnnInferWorkspace)->Arg(1)->Arg(16)->Arg(128);

void BM_CnnTrainEpoch(benchmark::State& state) {
  util::Rng rng(5);
  nn::Matrix x(128, 40);
  for (double& v : x.data()) v = rng.normal();
  std::vector<int> y;
  for (int i = 0; i < 128; ++i) y.push_back(rng.bernoulli(0.3) ? 1 : 0);
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng init(7);
    nn::Sequential model = nn::make_cnn(40, init);
    nn::TrainConfig config;
    config.epochs = 1;
    config.validation_fraction = 0.0;
    state.ResumeTiming();
    benchmark::DoNotOptimize(nn::train_binary_classifier(model, x, y, config));
  }
}
BENCHMARK(BM_CnnTrainEpoch);

void BM_IcpPValues(benchmark::State& state) {
  util::Rng rng(9);
  std::vector<double> probs;
  std::vector<int> labels;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    labels.push_back(rng.bernoulli(0.3) ? 1 : 0);
    probs.push_back(std::clamp((labels.back() ? 0.7 : 0.3) + rng.normal(0.0, 0.15),
                               0.01, 0.99));
  }
  cp::MondrianIcp icp;
  icp.calibrate(probs, labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(icp.p_values(rng.uniform()));
  }
  state.SetLabel("cal_size=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_IcpPValues)->Arg(100)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// P4 — batch subsystem scaling
// ---------------------------------------------------------------------------

core::ExperimentConfig sweep_point(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.seed = seed;
  config.corpus.design_count = 72;
  config.corpus.infected_fraction = 0.35;
  config.gan_target_per_class = 40;
  config.gan.epochs = 30;
  config.fusion.train.epochs = 12;
  config.fusion.train.validation_fraction = 0.0;
  return config;
}

const std::vector<core::ExperimentConfig>& sweep_configs() {
  static const auto configs = [] {
    std::vector<core::ExperimentConfig> points;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) points.push_back(sweep_point(seed));
    return points;
  }();
  return configs;
}

/// Serial (1-thread) reference results, computed once; every parallel run
/// must reproduce these bit-for-bit.
const std::vector<core::ExperimentResult>& sweep_reference() {
  static const auto reference = [] {
    core::SweepOptions options;
    options.threads = 1;
    return core::run_experiment_sweep(sweep_configs(), options);
  }();
  return reference;
}

bool identical_results(const std::vector<core::ExperimentResult>& a,
                       const std::vector<core::ExperimentResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t arm = 0; arm < 4; ++arm) {
      const core::ArmResult& x = *a[i].arms()[arm];
      const core::ArmResult& y = *b[i].arms()[arm];
      if (x.probabilities != y.probabilities || x.p_values != y.p_values ||
          x.brier != y.brier) {
        return false;
      }
    }
    if (a[i].winner != b[i].winner) return false;
  }
  return true;
}

void BM_ExperimentSweep(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto& reference = sweep_reference();  // built outside the timed loop
  core::SweepOptions options;
  options.threads = threads;
  for (auto _ : state) {
    const auto results = core::run_experiment_sweep(sweep_configs(), options);
    benchmark::DoNotOptimize(results);
    if (!identical_results(results, reference)) {
      state.SkipWithError("sweep results diverged from the 1-thread reference");
      break;
    }
  }
  state.SetLabel("threads=" + std::to_string(threads) + " sweep_points=" +
                 std::to_string(sweep_configs().size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sweep_configs().size()));
}
BENCHMARK(BM_ExperimentSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

const core::NoodleDetector& fitted_detector() {
  static const auto detector = [] {
    core::DetectorConfig config;
    config.seed = 3;
    config.gan_target_per_class = 40;
    config.gan.epochs = 30;
    config.fusion.train.epochs = 12;
    config.fusion.train.validation_fraction = 0.0;
    core::NoodleDetector d(config);
    data::CorpusSpec spec;
    spec.design_count = 96;
    spec.infected_fraction = 0.35;
    spec.seed = 3;
    d.fit(data::build_corpus(spec));
    return d;
  }();
  return detector;
}

/// The sample the serving benches scan to check a loaded model.
const data::FeatureSample& probe_sample() {
  static const data::FeatureSample sample = data::featurize(corpus().front());
  return sample;
}

// ---------------------------------------------------------------------------
// P5 — serving subsystem: snapshot persistence
// ---------------------------------------------------------------------------

void BM_SnapshotSaveLoad(benchmark::State& state) {
  const auto& detector = fitted_detector();
  const auto path = std::filesystem::temp_directory_path() / "noodle_bench.snap";
  const core::DetectionReport reference = detector.scan_features(probe_sample());
  std::uintmax_t snapshot_bytes = 0;
  for (auto _ : state) {
    detector.save(path);
    const core::NoodleDetector loaded = core::NoodleDetector::from_snapshot(path);
    benchmark::DoNotOptimize(loaded);
    state.PauseTiming();
    snapshot_bytes = std::filesystem::file_size(path);
    const core::DetectionReport check = loaded.scan_features(probe_sample());
    if (check.probability != reference.probability ||
        check.p_values != reference.p_values) {
      state.SkipWithError("loaded detector diverged from the fitted original");
      break;  // no ResumeTiming after SkipWithError (library precondition)
    }
    state.ResumeTiming();
  }
  std::filesystem::remove(path);
  state.SetLabel("snapshot_bytes=" + std::to_string(snapshot_bytes));
}
BENCHMARK(BM_SnapshotSaveLoad)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// P6 — multi-model registry: resolve and atomic hot reload
// ---------------------------------------------------------------------------

void BM_RegistryResolve(benchmark::State& state) {
  serve::ModelRegistry registry;
  registry.publish("prod", fitted_detector().fitted_model());
  registry.publish("canary", fitted_detector().fitted_model());
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.resolve("prod"));  // name lookup + atomic load
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistryResolve);

void BM_HotReload(benchmark::State& state) {
  // One reload = snapshot read + full validation + arm rebuild + atomic
  // publish — the latency floor for a zero-downtime model upgrade.
  const auto path = std::filesystem::temp_directory_path() / "noodle_bench_reload.snap";
  fitted_detector().save(path);
  const core::DetectionReport reference = fitted_detector().scan_features(probe_sample());
  serve::ModelRegistry registry;
  registry.reload_from("prod", path);
  for (auto _ : state) {
    const serve::ModelHandle handle = registry.reload_from("prod", path);
    benchmark::DoNotOptimize(handle);
    state.PauseTiming();
    registry.retire("prod", handle->version() - 1);  // keep the catalog flat
    state.ResumeTiming();
  }
  const core::DetectionReport check =
      registry.resolve("prod")->model().scan_features(probe_sample());
  if (check.probability != reference.probability ||
      check.p_values != reference.p_values) {
    state.SkipWithError("reloaded generation diverged from the fitted original");
  }
  std::filesystem::remove(path);
  state.SetLabel("live_generations=" + std::to_string(registry.size()));
}
BENCHMARK(BM_HotReload)->Unit(benchmark::kMillisecond);

// --- P6: observability ------------------------------------------------------
// The warm instrumentation path a request pays per stage: one histogram
// record plus a counter bump. This is the number that proves the metrics
// layer is cheap enough to leave on (tens of nanoseconds against a
// millisecond-scale scan).

void BM_MetricsRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist =
      registry.histogram("noodle_stage_duration_seconds", "bench", {{"stage", "infer"}});
  obs::Counter& counter =
      registry.counter("noodle_cache_probes_total", "bench", {{"outcome", "hit"}});
  std::uint64_t nanos = 100;
  for (auto _ : state) {
    hist.record(nanos);
    counter.inc();
    nanos = nanos * 3 % 10'000'000'000ULL;  // walk across the bucket range
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsRecord);

// The read side: merging every shard of a populated histogram into a
// Snapshot, as render_prometheus() and snapshot() do per scrape. Scrape
// cost scales with (families x buckets), not with traffic.

void BM_HistogramMerge(benchmark::State& state) {
  obs::Histogram hist;
  std::uint64_t nanos = 137;
  for (std::size_t i = 0; i < 100'000; ++i) {
    hist.record(nanos);
    nanos = nanos * 3 % 10'000'000'000ULL;
  }
  for (auto _ : state) {
    const obs::Histogram::Snapshot snap = hist.snapshot();
    benchmark::DoNotOptimize(snap.count);
    benchmark::DoNotOptimize(snap.quantile_nanos(0.99));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramMerge);

}  // namespace

BENCHMARK_MAIN();
