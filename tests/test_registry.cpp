// Tests for the multi-model serving layer: ModelSpec parsing, the
// ModelRegistry's publish/resolve/retire/reload_from semantics, swap
// atomicity under concurrent load (a scan is always answered by exactly one
// generation, bit-identically), generation-scoped verdict caching, and the
// consistency and bounds of the service's per-model counters.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace noodle {
namespace {

std::filesystem::path temp_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

// Two genuinely different fitted generations (different seeds and corpora),
// their snapshot files, and per-sample reference reports. Fitting is the
// expensive part, so everything is built once per suite.
class RegistryFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_a_ = new core::NoodleDetector(quick_config(7));
    gen_a_->fit(data::build_corpus(quick_corpus(7, 72)));
    gen_b_ = new core::NoodleDetector(quick_config(11));
    gen_b_->fit(data::build_corpus(quick_corpus(11, 64)));

    path_a_ = temp_path("noodle_registry_a.snap");
    path_b_ = temp_path("noodle_registry_b.snap");
    gen_a_->save(path_a_);
    gen_b_->save(path_b_);

    samples_ = new std::vector<data::FeatureSample>();
    sources_ = new std::vector<std::string>();
    for (const auto& circuit : data::build_corpus(quick_corpus(19, 12))) {
      samples_->push_back(data::featurize(circuit));
      sources_->push_back(circuit.verilog);
    }
    ref_a_ = new std::vector<core::DetectionReport>(gen_a_->scan_many(*samples_, 1));
    ref_b_ = new std::vector<core::DetectionReport>(gen_b_->scan_many(*samples_, 1));
  }

  static void TearDownTestSuite() {
    std::filesystem::remove(path_a_);
    std::filesystem::remove(path_b_);
    delete ref_b_;
    ref_b_ = nullptr;
    delete ref_a_;
    ref_a_ = nullptr;
    delete sources_;
    sources_ = nullptr;
    delete samples_;
    samples_ = nullptr;
    delete gen_b_;
    gen_b_ = nullptr;
    delete gen_a_;
    gen_a_ = nullptr;
  }

  static core::DetectorConfig quick_config(std::uint64_t seed) {
    core::DetectorConfig config;
    config.seed = seed;
    config.gan_target_per_class = 30;
    config.gan.epochs = 20;
    config.fusion.train.epochs = 8;
    config.fusion.train.validation_fraction = 0.0;
    return config;
  }

  static data::CorpusSpec quick_corpus(std::uint64_t seed, std::size_t designs) {
    data::CorpusSpec spec;
    spec.design_count = designs;
    spec.infected_fraction = 0.35;
    spec.seed = seed;
    return spec;
  }

  static bool identical(const core::DetectionReport& a, const core::DetectionReport& b) {
    return a.predicted_label == b.predicted_label && a.probability == b.probability &&
           a.p_values == b.p_values && a.region.contains == b.region.contains &&
           a.fusion_used == b.fusion_used;
  }

  static core::NoodleDetector* gen_a_;
  static core::NoodleDetector* gen_b_;
  static std::filesystem::path path_a_;
  static std::filesystem::path path_b_;
  static std::vector<data::FeatureSample>* samples_;
  static std::vector<std::string>* sources_;
  static std::vector<core::DetectionReport>* ref_a_;
  static std::vector<core::DetectionReport>* ref_b_;
};

core::NoodleDetector* RegistryFixture::gen_a_ = nullptr;
core::NoodleDetector* RegistryFixture::gen_b_ = nullptr;
std::filesystem::path RegistryFixture::path_a_;
std::filesystem::path RegistryFixture::path_b_;
std::vector<data::FeatureSample>* RegistryFixture::samples_ = nullptr;
std::vector<std::string>* RegistryFixture::sources_ = nullptr;
std::vector<core::DetectionReport>* RegistryFixture::ref_a_ = nullptr;
std::vector<core::DetectionReport>* RegistryFixture::ref_b_ = nullptr;

// --- ModelSpec parsing -------------------------------------------------------

TEST(ModelSpecParsing, AcceptsNameAndNameAtVersion) {
  const serve::ModelSpec bare = serve::parse_model_spec("prod-v2.east_1");
  EXPECT_EQ(bare.name, "prod-v2.east_1");
  EXPECT_EQ(bare.version, 0u);  // 0 = latest
  EXPECT_EQ(bare.to_string(), "prod-v2.east_1");

  const serve::ModelSpec pinned = serve::parse_model_spec("canary@3");
  EXPECT_EQ(pinned.name, "canary");
  EXPECT_EQ(pinned.version, 3u);
  EXPECT_EQ(pinned.to_string(), "canary@3");
}

TEST(ModelSpecParsing, RejectsMalformedSpecs) {
  EXPECT_THROW(serve::parse_model_spec(""), serve::RegistryError);
  EXPECT_THROW(serve::parse_model_spec("@3"), serve::RegistryError);
  EXPECT_THROW(serve::parse_model_spec("name@"), serve::RegistryError);
  EXPECT_THROW(serve::parse_model_spec("name@0"), serve::RegistryError);
  EXPECT_THROW(serve::parse_model_spec("name@two"), serve::RegistryError);
  EXPECT_THROW(serve::parse_model_spec("name@1x"), serve::RegistryError);
  EXPECT_THROW(serve::parse_model_spec("bad name"), serve::RegistryError);
  EXPECT_THROW(serve::parse_model_spec("colon:name"), serve::RegistryError);
}

TEST(ModelSpecParsing, TryFormAgreesWithoutThrowing) {
  for (const char* bad : {"", "@3", "name@", "name@0", "name@two", "name@1x", "bad name",
                          "colon:name", "~inline module m(input [7"}) {
    EXPECT_FALSE(serve::try_parse_model_spec(bad).has_value()) << bad;
  }
  const std::optional<serve::ModelSpec> pinned = serve::try_parse_model_spec("canary@3");
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(pinned->name, "canary");
  EXPECT_EQ(pinned->version, 3u);
  EXPECT_EQ(serve::try_parse_model_spec("prod-v2.east_1")->version, 0u);
}

// --- registry semantics ------------------------------------------------------

TEST_F(RegistryFixture, PublishResolveRetireSemantics) {
  serve::ModelRegistry registry;
  EXPECT_THROW(registry.publish("m", nullptr), serve::RegistryError);
  EXPECT_THROW(registry.publish("bad name", gen_a_->fitted_model()),
               serve::RegistryError);
  EXPECT_THROW(registry.resolve("m"), serve::RegistryError);

  const serve::ModelHandle v1 = registry.publish("m", gen_a_->fitted_model());
  const serve::ModelHandle v2 = registry.publish("m", gen_b_->fitted_model());
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v1->label(), "m@1");
  EXPECT_NE(v1->id(), v2->id());  // generation ids are process-unique

  EXPECT_EQ(registry.resolve("m"), v2);  // bare name = latest
  EXPECT_EQ(registry.resolve("m@1"), v1);
  EXPECT_EQ(registry.resolve(serve::ModelSpec{"m", 2}), v2);
  EXPECT_EQ(registry.try_resolve(serve::ModelSpec{"m", 9}), nullptr);
  EXPECT_THROW(registry.resolve("m@9"), serve::RegistryError);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"m"});
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.catalog().size(), 2u);

  // Retiring the latest repoints to the highest survivor.
  EXPECT_TRUE(registry.retire("m", 2));
  EXPECT_EQ(registry.resolve("m"), v1);
  EXPECT_FALSE(registry.retire("m", 2));  // versions are never reused
  EXPECT_TRUE(registry.retire("m"));      // version 0 = current latest
  EXPECT_EQ(registry.try_resolve(serve::ModelSpec{"m"}), nullptr);
  EXPECT_TRUE(registry.names().empty());

  // Versions keep counting after a full retire (no id/version recycling).
  const serve::ModelHandle v3 = registry.publish("m", gen_a_->fitted_model());
  EXPECT_EQ(v3->version(), 3u);
}

TEST_F(RegistryFixture, ReloadFromLoadsValidatesAndSwaps) {
  serve::ModelRegistry registry;
  const serve::ModelHandle v1 = registry.reload_from("m", path_a_);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->source(), path_a_);
  for (std::size_t i = 0; i < samples_->size(); ++i) {
    EXPECT_TRUE(identical(v1->model().scan_features((*samples_)[i]), (*ref_a_)[i]));
  }

  const serve::ModelHandle v2 = registry.reload_from("m", path_b_);
  EXPECT_EQ(registry.resolve("m"), v2);
  for (std::size_t i = 0; i < samples_->size(); ++i) {
    EXPECT_TRUE(identical(v2->model().scan_features((*samples_)[i]), (*ref_b_)[i]));
  }

  // A bad snapshot fails the reload and leaves the latest untouched.
  const auto bad = temp_path("noodle_registry_bad.snap");
  {
    std::ofstream os(bad, std::ios::binary);
    os << "definitely not a snapshot";
  }
  EXPECT_THROW(registry.reload_from("m", bad), serve::SnapshotError);
  EXPECT_EQ(registry.resolve("m"), v2);
  EXPECT_EQ(registry.size(), 2u);
  std::filesystem::remove(bad);
}

TEST_F(RegistryFixture, ResolvingLatestTracksSwapsAndRetires) {
  serve::ModelRegistry registry;
  registry.publish("m", gen_a_->fitted_model());
  const serve::ModelSpec latest{"m", 0};
  const serve::ModelHandle first = registry.try_resolve(latest);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version(), 1u);

  registry.publish("m", gen_b_->fitted_model());
  EXPECT_EQ(registry.try_resolve(latest)->version(), 2u);

  registry.retire("m");
  registry.retire("m");
  EXPECT_EQ(registry.try_resolve(latest), nullptr);

  // The old handle is still pinned and scannable after full retirement.
  EXPECT_TRUE(identical(first->model().scan_features((*samples_)[0]), (*ref_a_)[0]));
}

// --- swap atomicity ----------------------------------------------------------

TEST_F(RegistryFixture, ReloadDuringScanManyNeitherBlocksNorChangesVerdicts) {
  serve::ModelRegistry registry;
  registry.reload_from("m", path_a_);
  const serve::ModelHandle pinned = registry.resolve("m");

  // Scan on one thread while the registry swaps generations underneath.
  std::atomic<bool> reloading{true};
  std::thread reloader([&] {
    for (int i = 0; i < 4; ++i) {
      registry.reload_from("m", path_b_);
      registry.reload_from("m", path_a_);
    }
    reloading = false;
  });
  std::vector<core::DetectionReport> reports;
  while (reloading.load()) {
    reports = pinned->model().scan_many(*samples_, 2);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      ASSERT_TRUE(identical(reports[i], (*ref_a_)[i]))
          << "pinned handle verdict drifted during reload at sample " << i;
    }
  }
  reloader.join();
  // After 8 swaps the latest is a fresh generation, the pinned handle intact.
  EXPECT_GE(registry.resolve("m")->version(), 9u);
  EXPECT_EQ(pinned->version(), 1u);
}

TEST_F(RegistryFixture, ConcurrentReloadNeverMixesGenerationsInABatch) {
  serve::ModelRegistry registry;
  registry.reload_from("m", path_a_);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> batches_checked{0};
  std::thread reloader([&] {
    for (int i = 0; i < 6; ++i) {
      registry.reload_from("m", path_b_);
      registry.reload_from("m", path_a_);
    }
    stop = true;
  });

  // Scanners resolve latest per batch, exactly like the service does. Every
  // batch must be bit-identical to ONE generation's reference — all-A or
  // all-B, never a mixture.
  std::vector<std::thread> scanners;
  std::atomic<bool> failed{false};
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&] {
      while (!stop.load()) {
        const serve::ModelHandle handle = registry.resolve("m");
        const auto reports = handle->model().scan_many(*samples_, 1);
        bool all_a = true, all_b = true;
        for (std::size_t i = 0; i < reports.size(); ++i) {
          all_a = all_a && identical(reports[i], (*ref_a_)[i]);
          all_b = all_b && identical(reports[i], (*ref_b_)[i]);
        }
        if (!(all_a || all_b)) failed = true;
        ++batches_checked;
      }
    });
  }
  reloader.join();
  for (auto& scanner : scanners) scanner.join();
  EXPECT_FALSE(failed.load()) << "a batch mixed verdicts from two generations";
  EXPECT_GT(batches_checked.load(), 0u);
}

TEST_F(RegistryFixture, ServiceServesBothGenerationsCorrectlyAcrossReload) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->reload_from("m", path_a_);
  serve::ServiceConfig config;
  config.max_batch = 4;
  config.workers = 2;
  serve::DetectionService service(registry, "m", config);

  // Burst against generation A, hot-swap to B, burst again: every verdict
  // must match the generation its served_by label names.
  std::vector<std::future<core::DetectionReport>> first;
  for (const auto& source : *sources_) first.push_back(service.submit(source));
  for (std::size_t i = 0; i < first.size(); ++i) {
    const core::DetectionReport report = first[i].get();
    EXPECT_EQ(report.served_by, "m@1");
    EXPECT_TRUE(identical(report, (*ref_a_)[i]));
  }

  service.reload("m", path_b_);
  std::vector<std::future<core::DetectionReport>> second;
  for (const auto& source : *sources_) second.push_back(service.submit(source));
  for (std::size_t i = 0; i < second.size(); ++i) {
    const core::DetectionReport report = second[i].get();
    EXPECT_EQ(report.served_by, "m@2");
    EXPECT_TRUE(identical(report, (*ref_b_)[i]));
  }

  // Pinned-version requests still hit generation 1 after the swap.
  const core::DetectionReport pinned = service.scan("m@1", (*sources_)[0]);
  EXPECT_EQ(pinned.served_by, "m@1");
  EXPECT_TRUE(identical(pinned, (*ref_a_)[0]));
}

// --- generation-scoped verdict cache ----------------------------------------

TEST_F(RegistryFixture, CacheKeysAreGenerationScoped) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->reload_from("m", path_a_);
  serve::DetectionService service(registry, "m");

  const std::string& source = (*sources_)[0];
  const core::DetectionReport first = service.scan(source);
  const core::DetectionReport again = service.scan(source);
  EXPECT_TRUE(identical(first, (*ref_a_)[0]));
  EXPECT_TRUE(identical(again, (*ref_a_)[0]));
  EXPECT_EQ(service.stats().cache_hits, 1u);  // second scan is a hit

  // After the swap the same source must MISS (different generation id) and
  // be re-scanned by generation B — a cached A-verdict must never leak.
  service.reload("m", path_b_);
  const core::DetectionReport swapped = service.scan(source);
  EXPECT_EQ(swapped.served_by, "m@2");
  EXPECT_TRUE(identical(swapped, (*ref_b_)[0]));

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.scans, 2u);

  // And the old generation's entry still serves version-pinned requests.
  const core::DetectionReport pinned = service.scan("m@1", source);
  EXPECT_TRUE(identical(pinned, (*ref_a_)[0]));
  EXPECT_EQ(service.stats().cache_hits, 2u);  // m@1 entry was still cached
}

TEST_F(RegistryFixture, UnknownModelFailsTheFutureNotTheCall) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->reload_from("m", path_a_);
  serve::DetectionService service(registry, "m");

  auto missing = service.submit("ghost", (*sources_)[0]);
  EXPECT_THROW(missing.get(), serve::RegistryError);
  auto bad_version = service.submit("m@42", (*sources_)[0]);
  EXPECT_THROW(bad_version.get(), serve::RegistryError);
  EXPECT_THROW(service.submit("not a spec", (*sources_)[0]), serve::RegistryError);

  service.drain();
  EXPECT_EQ(service.stats().model_misses, 2u);
  EXPECT_EQ(service.stats("ghost").model_misses, 1u);
  EXPECT_EQ(service.stats("m").model_misses, 1u);

  // Sanity: the healthy model still answers.
  EXPECT_TRUE(identical(service.scan((*sources_)[0]), (*ref_a_)[0]));
}

TEST_F(RegistryFixture, StatsMapIsBoundedAgainstBogusModelNames) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->reload_from("m", path_a_);
  serve::DetectionService service(registry, "m");

  // A client spraying distinct nonexistent model names must not grow the
  // per-model counters without bound: overflow names share one cell.
  const std::size_t bogus = serve::kMaxTrackedModels + 40;
  std::vector<std::future<core::DetectionReport>> futures;
  futures.reserve(bogus);
  for (std::size_t i = 0; i < bogus; ++i) {
    futures.push_back(service.submit("bogus" + std::to_string(i), (*sources_)[0]));
  }
  for (auto& future : futures) EXPECT_THROW(future.get(), serve::RegistryError);
  service.drain();

  EXPECT_EQ(service.stats().model_misses, bogus);
  const auto by_model = service.stats_by_model();
  EXPECT_LE(by_model.size(), serve::kMaxTrackedModels + 1);
  const auto overflow = by_model.find(serve::kOverflowCell);
  ASSERT_NE(overflow, by_model.end());
  EXPECT_GE(overflow->second.model_misses, 40u);
  std::uint64_t misses = 0;
  for (const auto& [name, stats] : by_model) misses += stats.model_misses;
  EXPECT_EQ(misses, bogus);  // per-model cells still partition the aggregate

  // The exposition is bounded the same way: the cells are its series.
  std::ostringstream os;
  service.render_prometheus(os);
  std::istringstream lines(os.str());
  const std::string prefix = "noodle_model_misses_total{model=\"";
  std::set<std::string> models;
  std::uint64_t rendered_misses = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find("\"} ", prefix.size());
    ASSERT_NE(close, std::string::npos) << line;
    models.insert(line.substr(prefix.size(), close - prefix.size()));
    rendered_misses += std::stoull(line.substr(close + 3));
  }
  EXPECT_LE(models.size(), serve::kMaxTrackedModels + 1);
  EXPECT_EQ(models.count(serve::kOverflowCell), 1u);
  EXPECT_EQ(rendered_misses, bogus);
}

// --- stats view consistency --------------------------------------------------

TEST_F(RegistryFixture, StatsSnapshotsAreNeverTorn) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->reload_from("m", path_a_);
  serve::ServiceConfig config;
  config.max_batch = 4;
  config.workers = 2;
  serve::DetectionService service(registry, "m", config);

  // Hammer the service with every outcome class (scans, cache hits, parse
  // failures, model misses) while a reader thread checks that EVERY stats
  // snapshot is internally consistent: outcomes never exceed requests.
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const serve::ServiceStats s = service.stats();
      if (s.cache_hits + s.scans + s.parse_failures + s.model_misses > s.requests) {
        torn = true;
      }
      const serve::ServiceStats m = service.stats("m");
      if (m.cache_hits + m.scans + m.parse_failures + m.model_misses > m.requests) {
        torn = true;
      }
    }
  });

  std::vector<std::thread> writers;
  constexpr std::size_t kRounds = 12;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      std::vector<std::future<core::DetectionReport>> futures;
      for (std::size_t round = 0; round < kRounds; ++round) {
        futures.push_back(
            service.submit((*sources_)[(round + static_cast<std::size_t>(t)) %
                                       sources_->size()]));
        futures.push_back(service.submit("module broken ("));
        futures.push_back(service.submit("ghost", (*sources_)[0]));
      }
      for (auto& future : futures) {
        try {
          future.get();
        } catch (const std::exception&) {
          // parse failures and model misses are expected here
        }
      }
    });
  }
  for (auto& writer : writers) writer.join();
  service.drain();
  stop = true;
  reader.join();
  EXPECT_FALSE(torn.load()) << "observed a torn stats snapshot";

  // Fully drained, the outcome classes partition the requests exactly.
  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 3u * 3u * kRounds);
  EXPECT_EQ(s.cache_hits + s.scans + s.parse_failures + s.model_misses, s.requests);
  EXPECT_EQ(s.model_misses, 3u * kRounds);
  EXPECT_GE(s.parse_failures, 1u);

  // Per-model snapshots partition the aggregate.
  const auto by_model = service.stats_by_model();
  std::uint64_t requests = 0;
  for (const auto& [name, stats] : by_model) requests += stats.requests;
  EXPECT_EQ(requests, s.requests);
}

// --- reload event log --------------------------------------------------------

TEST_F(RegistryFixture, ReloadEventLogRecordsSuccessesAndFailures) {
  serve::ModelRegistry registry;
  registry.reload_from("m", path_a_);
  EXPECT_THROW(registry.reload_from("m", temp_path("noodle_no_such_file.snap")),
               serve::SnapshotError);
  registry.reload_from("m", path_b_);

  const std::vector<serve::ReloadEvent> events = registry.reload_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].ok);
  EXPECT_EQ(events[0].name, "m");
  EXPECT_EQ(events[0].version, 1u);
  EXPECT_GT(events[0].load_micros, 0u);  // a real snapshot load takes time
  EXPECT_FALSE(events[1].ok);
  EXPECT_EQ(events[1].version, 0u);  // nothing was published
  EXPECT_FALSE(events[1].error.empty());
  EXPECT_TRUE(events[2].ok);
  EXPECT_EQ(events[2].version, 2u);  // the failure consumed no version number
  EXPECT_LT(events[0].when, std::chrono::system_clock::now());

  const serve::ReloadStats totals = registry.reload_stats();
  EXPECT_EQ(totals.ok, 2u);
  EXPECT_EQ(totals.errors, 1u);
  EXPECT_GE(totals.load_micros_total, events[0].load_micros);
}

TEST_F(RegistryFixture, ReloadEventLogIsBoundedButTotalsAreNot) {
  serve::ModelRegistry registry;
  const serve::ModelHandle seed = registry.reload_from("m", path_a_);
  // Republishing the already-loaded model is cheap, so we can push far past
  // the ring bound without refitting anything.
  const std::size_t publishes = serve::ModelRegistry::kMaxReloadEvents + 40;
  for (std::size_t i = 0; i < publishes; ++i) {
    registry.publish("m", seed->model_ptr());
  }

  const std::vector<serve::ReloadEvent> events = registry.reload_events();
  EXPECT_EQ(events.size(), serve::ModelRegistry::kMaxReloadEvents);
  // Oldest events aged out: the front of the log is a later publish, and
  // versions stay strictly ascending across the retained window.
  EXPECT_GT(events.front().version, 1u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].version, events[i - 1].version + 1);
  }
  EXPECT_EQ(events.back().version, 1u + publishes);

  const serve::ReloadStats totals = registry.reload_stats();
  EXPECT_EQ(totals.ok, 1u + publishes);  // totals survive the ring's bound
  EXPECT_EQ(totals.errors, 0u);
}

}  // namespace
}  // namespace noodle
