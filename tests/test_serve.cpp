// Tests for the serving subsystem: binary-IO primitives, the snapshot
// archive format, NoodleDetector save/load round-trip bit-identity, the
// archive's corruption defenses, and DetectionService batching/caching
// returning verdicts identical to direct sequential scans.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "lint/lint.h"
#include "net/protocol.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/binary_io.h"
#include "util/fault_injector.h"
#include "worker_latch.h"

namespace noodle {
namespace {

// --- binary-IO primitives --------------------------------------------------

TEST(BinaryIo, RoundTripsScalarsBitExactly) {
  std::ostringstream os;
  util::write_u8(os, 0xab);
  util::write_u32(os, 0xdeadbeefu);
  util::write_u64(os, 0x0123456789abcdefULL);
  util::write_f64(os, -0.1);
  util::write_f64(os, 0.0);
  util::write_string(os, "noodle");
  util::write_f64_vector(os, {1.5, -2.25, 1e-300});

  std::istringstream is(os.str());
  EXPECT_EQ(util::read_u8(is), 0xab);
  EXPECT_EQ(util::read_u32(is), 0xdeadbeefu);
  EXPECT_EQ(util::read_u64(is), 0x0123456789abcdefULL);
  EXPECT_EQ(util::read_f64(is), -0.1);
  EXPECT_EQ(util::read_f64(is), 0.0);
  EXPECT_EQ(util::read_string(is), "noodle");
  EXPECT_EQ(util::read_f64_vector(is), (std::vector<double>{1.5, -2.25, 1e-300}));
}

TEST(BinaryIo, TruncatedInputThrows) {
  std::istringstream is("\x01\x02");
  EXPECT_THROW(util::read_u64(is), std::runtime_error);
}

TEST(BinaryIo, AbsurdLengthPrefixThrowsInsteadOfAllocating) {
  std::ostringstream os;
  util::write_u64(os, ~0ULL);  // length prefix claiming 2^64-1 entries
  std::istringstream is(os.str());
  EXPECT_THROW(util::read_f64_vector(is), std::runtime_error);
}

TEST(BinaryIo, Fnv1a64MatchesReferenceVector) {
  // FNV-1a test vectors: empty input -> offset basis; "a" -> published value.
  EXPECT_EQ(util::fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
}

// --- snapshot archive framing ----------------------------------------------

TEST(SnapshotArchive, RoundTripsSections) {
  serve::SnapshotWriter writer;
  util::write_string(writer.begin_section("AAAA"), "first");
  util::write_string(writer.begin_section("BBBB"), "second");
  std::ostringstream os;
  writer.write_to(os);

  std::istringstream is(os.str());
  serve::SnapshotReader reader(is);
  EXPECT_EQ(reader.section_count(), 2u);
  EXPECT_TRUE(reader.has_section("AAAA"));
  EXPECT_FALSE(reader.has_section("ZZZZ"));
  // Out-of-order access by tag works.
  EXPECT_EQ(util::read_string(reader.section("BBBB")), "second");
  EXPECT_EQ(util::read_string(reader.section("AAAA")), "first");
  EXPECT_THROW(reader.section("AAAA"), serve::SnapshotError);  // consumed
  EXPECT_THROW(reader.section("ZZZZ"), serve::SnapshotError);  // missing
}

TEST(SnapshotArchive, RejectsBadMagicVersionTruncationAndCorruption) {
  serve::SnapshotWriter writer;
  util::write_string(writer.begin_section("DATA"), std::string(256, 'x'));
  std::ostringstream os;
  writer.write_to(os);
  const std::string bytes = os.str();

  {
    std::istringstream is("not a snapshot at all");
    EXPECT_THROW(serve::SnapshotReader reader(is), serve::SnapshotError);
  }
  {
    std::string wrong_version = bytes;
    wrong_version[8] = static_cast<char>(serve::kSnapshotVersion + 1);
    std::istringstream is(wrong_version);
    EXPECT_THROW(serve::SnapshotReader reader(is), serve::SnapshotError);
  }
  {
    std::istringstream is(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(serve::SnapshotReader reader(is), serve::SnapshotError);
  }
  {
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;  // single bit flip mid-payload
    std::istringstream is(flipped);
    EXPECT_THROW(serve::SnapshotReader reader(is), serve::SnapshotError);
  }
  {
    std::istringstream is(bytes);  // pristine bytes still parse
    EXPECT_NO_THROW(serve::SnapshotReader reader(is));
  }
}

bool names_the_size_limit(const serve::SnapshotError& error) {
  return std::string(error.what()).find("limit") != std::string::npos;
}

TEST(SnapshotArchive, RefusesNonRegularFilesWithoutReadingThem) {
  // /dev/zero never ends: it is refused by its file type before a byte is
  // read, as is a directory.
  ASSERT_TRUE(std::filesystem::exists("/dev/zero"));
  EXPECT_THROW(serve::SnapshotReader::from_file("/dev/zero"), serve::SnapshotError);
  EXPECT_THROW(serve::SnapshotReader::from_file(std::filesystem::temp_directory_path()),
               serve::SnapshotError);
}

TEST(SnapshotArchive, RefusesArchivesOverTheSizeCap) {
  const auto path = std::filesystem::temp_directory_path() / "noodle_oversized.snap";
  { std::ofstream create(path, std::ios::binary); }
  std::filesystem::resize_file(path, serve::kMaxSnapshotBytes + 1);  // sparse
  try {
    serve::SnapshotReader::from_file(path);
    ADD_FAILURE() << "an archive over the cap was accepted";
  } catch (const serve::SnapshotError& e) {
    EXPECT_TRUE(names_the_size_limit(e)) << e.what();
  }
  {
    // The stream constructor stops reading at cap + 1 bytes on its own;
    // without the cap these zeros would fail the magic check instead.
    std::ifstream is(path, std::ios::binary);
    try {
      serve::SnapshotReader reader(is);
      ADD_FAILURE() << "a stream over the cap was accepted";
    } catch (const serve::SnapshotError& e) {
      EXPECT_TRUE(names_the_size_limit(e)) << e.what();
    }
  }
  std::filesystem::remove(path);
}

// --- detector snapshot round trip -------------------------------------------

std::filesystem::path temp_snapshot_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

class DetectorSnapshot : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::DetectorConfig config;
    config.seed = 7;
    config.gan_target_per_class = 30;
    config.gan.epochs = 20;
    config.fusion.train.epochs = 8;
    config.fusion.train.validation_fraction = 0.0;
    detector_ = new core::NoodleDetector(config);

    data::CorpusSpec spec;
    spec.design_count = 72;
    spec.infected_fraction = 0.35;
    spec.seed = 7;
    corpus_ = new std::vector<data::CircuitSample>(data::build_corpus(spec));
    detector_->fit(*corpus_);

    samples_ = new std::vector<data::FeatureSample>();
    for (const auto& circuit : *corpus_) samples_->push_back(data::featurize(circuit));
  }

  static void TearDownTestSuite() {
    delete samples_;
    samples_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
    delete detector_;
    detector_ = nullptr;
  }

  static void expect_identical_report(const core::DetectionReport& a,
                                      const core::DetectionReport& b) {
    // Bit-identical, not approximately equal: serialization must be exact.
    EXPECT_EQ(a.predicted_label, b.predicted_label);
    EXPECT_EQ(a.probability, b.probability);
    EXPECT_EQ(a.p_values, b.p_values);
    EXPECT_EQ(a.region.p, b.region.p);
    EXPECT_EQ(a.region.contains, b.region.contains);
    EXPECT_EQ(a.region.confidence, b.region.confidence);
    EXPECT_EQ(a.region.credibility, b.region.credibility);
    EXPECT_EQ(a.fusion_used, b.fusion_used);
  }

  static core::NoodleDetector* detector_;
  static std::vector<data::CircuitSample>* corpus_;
  static std::vector<data::FeatureSample>* samples_;
};

core::NoodleDetector* DetectorSnapshot::detector_ = nullptr;
std::vector<data::CircuitSample>* DetectorSnapshot::corpus_ = nullptr;
std::vector<data::FeatureSample>* DetectorSnapshot::samples_ = nullptr;

TEST_F(DetectorSnapshot, SaveLoadRoundTripIsBitIdentical) {
  const auto path = temp_snapshot_path("noodle_roundtrip.snap");
  // Saving must work through a const reference (a fitted model is
  // immutable at serving time).
  const core::NoodleDetector& fitted = *detector_;
  fitted.save(path);

  const core::NoodleDetector loaded = core::NoodleDetector::from_snapshot(path);
  EXPECT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.winning_fusion(), detector_->winning_fusion());
  for (const auto& sample : *samples_) {
    expect_identical_report(loaded.scan_features(sample),
                            detector_->scan_features(sample));
  }
  std::filesystem::remove(path);
}

TEST_F(DetectorSnapshot, RoundTripSurvivesASecondGeneration) {
  // save -> load -> save -> load must stay stable (no drift in the format).
  const auto path1 = temp_snapshot_path("noodle_gen1.snap");
  const auto path2 = temp_snapshot_path("noodle_gen2.snap");
  detector_->save(path1);
  core::NoodleDetector first = core::NoodleDetector::from_snapshot(path1);
  first.save(path2);
  const core::NoodleDetector second = core::NoodleDetector::from_snapshot(path2);
  for (std::size_t i = 0; i < 8 && i < samples_->size(); ++i) {
    expect_identical_report(second.scan_features((*samples_)[i]),
                            detector_->scan_features((*samples_)[i]));
  }
  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
}

TEST_F(DetectorSnapshot, ScanVerilogAfterLoadMatches) {
  const auto path = temp_snapshot_path("noodle_verilog.snap");
  detector_->save(path);
  const core::NoodleDetector loaded = core::NoodleDetector::from_snapshot(path);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_identical_report(loaded.scan_verilog((*corpus_)[i].verilog),
                            detector_->scan_verilog((*corpus_)[i].verilog));
  }
  std::filesystem::remove(path);
}

TEST_F(DetectorSnapshot, CorruptedOrTruncatedSnapshotThrowsAndLeavesDetectorIntact) {
  const auto path = temp_snapshot_path("noodle_corrupt.snap");
  detector_->save(path);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  }

  const auto write_variant = [&path](const std::string& content) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  };

  // Truncated to half.
  write_variant(bytes.substr(0, bytes.size() / 2));
  core::NoodleDetector victim;
  EXPECT_THROW(victim.load(path), serve::SnapshotError);
  EXPECT_FALSE(victim.fitted());  // failed load must not half-populate

  // One corrupted byte deep inside the weight payload.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  write_variant(flipped);
  EXPECT_THROW(victim.load(path), serve::SnapshotError);
  EXPECT_FALSE(victim.fitted());

  // Version bump.
  std::string wrong_version = bytes;
  wrong_version[8] = static_cast<char>(serve::kSnapshotVersion + 7);
  write_variant(wrong_version);
  EXPECT_THROW(victim.load(path), serve::SnapshotError);
  EXPECT_FALSE(victim.fitted());

  std::filesystem::remove(path);
}

TEST_F(DetectorSnapshot, ReaderAcceptsOnlyVersionOne) {
  // Versions 2 and 3 once carried f32 and int8 weights. A re-stamped
  // archive with a recomputed checksum passes every other check, so only
  // the version gate can reject it.
  const auto path = temp_snapshot_path("noodle_versions.snap");
  detector_->save(path);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 1u);

  const auto restamp = [&bytes](unsigned char version) {
    std::string image = bytes.substr(0, bytes.size() - 8);
    image[8] = static_cast<char>(version);
    std::ostringstream checksum;
    util::write_u64(checksum, util::fnv1a64(image));
    return image + checksum.str();
  };
  ASSERT_EQ(restamp(1), bytes);  // the re-stamp itself keeps the archive valid

  for (const unsigned char version : {2, 3}) {
    const std::string image = restamp(version);
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    core::NoodleDetector victim;
    EXPECT_THROW(victim.load(path), serve::SnapshotError) << "version " << +version;
    EXPECT_FALSE(victim.fitted());
  }
  std::filesystem::remove(path);
}

TEST_F(DetectorSnapshot, MissingFileThrows) {
  core::NoodleDetector victim;
  EXPECT_THROW(victim.load(temp_snapshot_path("noodle_does_not_exist.snap")),
               serve::SnapshotError);
}

TEST(DetectorSnapshotUnfitted, SaveThrowsLogicError) {
  const core::NoodleDetector detector;
  EXPECT_THROW(detector.save(temp_snapshot_path("noodle_unfitted.snap")),
               std::logic_error);
}

// --- DetectionService --------------------------------------------------------

TEST_F(DetectorSnapshot, ServiceMatchesSequentialScansUnderConcurrency) {
  const auto path = temp_snapshot_path("noodle_service.snap");
  detector_->save(path);

  serve::ServiceConfig config;
  config.max_batch = 4;
  config.workers = 2;
  serve::DetectionService service(path, config);
  std::filesystem::remove(path);

  std::vector<std::future<core::DetectionReport>> futures;
  futures.reserve(corpus_->size());
  for (const auto& circuit : *corpus_) futures.push_back(service.submit(circuit.verilog));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_identical_report(futures[i].get(),
                            detector_->scan_verilog((*corpus_)[i].verilog));
  }

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, corpus_->size());
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.scans + stats.cache_hits, stats.requests);
  EXPECT_EQ(stats.parse_failures, 0u);
}

TEST_F(DetectorSnapshot, IdleServiceScansWithoutQueueWait) {
  // A request that finds the worker idle is picked up at once; it does not
  // wait for others to batch with.
  serve::DetectionService service(core::NoodleDetector(detector_->fitted_model()),
                                  serve::ServiceConfig{});
  std::vector<std::uint64_t> waits;
  for (std::size_t i = 0; i < 20; ++i) {
    const core::DetectionReport report = service.scan((*corpus_)[i].verilog);
    ASSERT_FALSE(report.timing.from_cache);
    waits.push_back(report.timing.queue_wait_us);
  }
  std::nth_element(waits.begin(), waits.begin() + 10, waits.end());
  EXPECT_LT(waits[10], 1000u);
}

TEST_F(DetectorSnapshot, BusyWorkerBatchesWhatQueuedMeanwhile) {
  serve::ServiceConfig config;
  config.max_batch = 16;
  WorkerLatch latch;
  serve::DetectionService service(core::NoodleDetector(detector_->fitted_model()), config);

  std::vector<std::future<core::DetectionReport>> futures;
  for (std::size_t i = 0; i < 48; ++i) {
    futures.push_back(service.submit((*corpus_)[i].verilog));
  }
  // The worker holds at most 16 of them; at least 32 queue behind it.
  ASSERT_TRUE(latch.wait_held());
  latch.release();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_identical_report(futures[i].get(),
                            detector_->scan_verilog((*corpus_)[i].verilog));
  }
  EXPECT_EQ(service.stats().max_batch_size, 16u);
}

TEST_F(DetectorSnapshot, IdleServiceReusesTheLastIdleWorker) {
  // A submit wakes the worker that went idle most recently, so sequential
  // scans with idle gaps between them stay on one warm thread; a shared
  // condition variable's notify_one rotated them through all four.
  std::mutex mutex;
  std::vector<std::thread::id> scanned_on;
  util::FaultInjector faults;
  faults.crash_point("serve.batch", [&] {
    std::lock_guard<std::mutex> lock(mutex);
    scanned_on.push_back(std::this_thread::get_id());
  });
  util::FaultInjector::Arm armed(faults);
  serve::ServiceConfig config;
  config.workers = 4;
  serve::DetectionService service(core::NoodleDetector(detector_->fitted_model()), config);

  // drain() returns once the worker that answered is parked again, so
  // the next scan finds it on top of the idle stack however late the
  // scheduler ran it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // workers park
  service.scan((*corpus_)[0].verilog);  // warm-up
  service.drain();
  for (std::size_t i = 1; i <= 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_FALSE(service.scan((*corpus_)[i].verilog).timing.from_cache);
    service.drain();
  }
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(scanned_on.size(), 21u);
  for (std::size_t i = 2; i <= 20; ++i) {
    EXPECT_EQ(scanned_on[i], scanned_on[1]) << "scan " << i << " moved to another worker";
  }
}

TEST_F(DetectorSnapshot, BusyWorkerDoesNotBlockTheOthers) {
  // With every worker held inside a batch, each of the three still took
  // one: a worker parked on the idle stack is woken, never skipped.
  serve::ServiceConfig config;
  config.workers = 3;
  WorkerLatch latch;
  serve::DetectionService service(core::NoodleDetector(detector_->fitted_model()), config);

  std::vector<std::future<core::DetectionReport>> futures;
  for (std::size_t i = 0; i < 48; ++i) {
    futures.push_back(service.submit((*corpus_)[i].verilog));
  }
  EXPECT_TRUE(latch.wait_held(3));
  latch.release();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    expect_identical_report(futures[i].get(),
                            detector_->scan_verilog((*corpus_)[i].verilog));
  }
  EXPECT_GE(service.stats().batches, 3u);
}

TEST_F(DetectorSnapshot, ServiceCacheHitsDoNotChangeResults) {
  serve::ServiceConfig config;
  config.max_batch = 8;
  core::NoodleDetector loaded;
  {
    const auto path = temp_snapshot_path("noodle_cache.snap");
    detector_->save(path);
    loaded.load(path);
    std::filesystem::remove(path);
  }
  serve::DetectionService service(std::move(loaded), config);

  const std::string& source = (*corpus_)[0].verilog;
  const core::DetectionReport first = service.scan(source);
  const core::DetectionReport again = service.scan(source);
  const core::DetectionReport direct = detector_->scan_verilog(source);
  expect_identical_report(first, direct);
  expect_identical_report(again, direct);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);  // second scan of identical RTL is a hit
  EXPECT_EQ(stats.scans, 1u);
  EXPECT_EQ(service.cache_size(), 1u);
}

TEST_F(DetectorSnapshot, ServiceCacheEvictsAtCapacityAndStaysCorrect) {
  serve::ServiceConfig config;
  config.cache_capacity = 2;
  core::NoodleDetector copy = core::NoodleDetector::from_snapshot([&] {
    const auto path = temp_snapshot_path("noodle_evict.snap");
    detector_->save(path);
    return path;
  }());
  serve::DetectionService service(std::move(copy), config);

  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 4; ++i) {
      expect_identical_report(service.scan((*corpus_)[i].verilog),
                              detector_->scan_verilog((*corpus_)[i].verilog));
    }
  }
  EXPECT_LE(service.cache_size(), 2u);
  std::filesystem::remove(temp_snapshot_path("noodle_evict.snap"));
}

TEST_F(DetectorSnapshot, ServiceIsolatesParseErrorsToTheirOwnFuture) {
  serve::ServiceConfig config;
  config.max_batch = 3;
  core::NoodleDetector copy;
  {
    const auto path = temp_snapshot_path("noodle_parse.snap");
    detector_->save(path);
    copy.load(path);
    std::filesystem::remove(path);
  }
  serve::DetectionService service(std::move(copy), config);

  auto good_before = service.submit((*corpus_)[0].verilog);
  auto bad = service.submit("module broken(");
  auto good_after = service.submit((*corpus_)[1].verilog);

  expect_identical_report(good_before.get(),
                          detector_->scan_verilog((*corpus_)[0].verilog));
  EXPECT_ANY_THROW(bad.get());
  expect_identical_report(good_after.get(),
                          detector_->scan_verilog((*corpus_)[1].verilog));
  service.drain();
  EXPECT_EQ(service.stats().parse_failures, 1u);
}

/// The value of one labelled counter in a metrics snapshot (0 if absent).
std::uint64_t sample_counter(const std::vector<obs::MetricsRegistry::Sample>& samples,
                             const std::string& name, const obs::Labels& labels) {
  for (const auto& sample : samples) {
    if (sample.name == name && sample.labels == labels) return sample.counter;
  }
  return 0;
}

std::uint64_t probe_count(serve::DetectionService& service, const char* outcome) {
  return sample_counter(service.metrics().snapshot(), "noodle_cache_probes_total",
                        {{"outcome", outcome}});
}

TEST_F(DetectorSnapshot, DiskTierServesBitIdenticalVerdictsAcrossRestarts) {
  // End-to-end persistence: service A scans cold and persists the verdict;
  // a brand-new service B (empty in-memory cache, same cache directory,
  // same snapshot) must answer from the disk tier — no model scan — with a
  // report bit-identical to a direct cold scan.
  const auto path = temp_snapshot_path("noodle_disk_tier.snap");
  detector_->save(path);
  const auto cache_dir =
      std::filesystem::temp_directory_path() / "noodle_disk_tier_cache";
  std::filesystem::remove_all(cache_dir);

  serve::ServiceConfig config;
  config.disk_cache.directory = cache_dir;
  const std::string& source = (*corpus_)[0].verilog;

  {
    serve::DetectionService service(path, config);
    ASSERT_NE(service.disk_cache(), nullptr);
    expect_identical_report(service.scan(source),
                            detector_->scan_verilog(source));
    service.disk_cache()->flush();
    EXPECT_EQ(service.disk_cache_stats().stores, 1u);
    EXPECT_EQ(service.stats().disk_hits, 0u);
  }
  {
    serve::DetectionService service(path, config);
    EXPECT_EQ(service.disk_cache_stats().loaded, 1u)
        << "restart scanner did not pick up the persisted record";
    const core::DetectionReport warm = service.scan(source);
    expect_identical_report(warm, detector_->scan_verilog(source));
    EXPECT_FALSE(warm.served_by.empty());

    const serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.disk_hits, 1u);
    EXPECT_EQ(stats.scans, 0u) << "disk tier should have spared the model";
    EXPECT_EQ(probe_count(service, "disk_hit"), 1u);

    // The disk hit promoted the entry: the next identical scan is a memory
    // hit, not a second disk probe.
    service.scan(source);
    EXPECT_EQ(service.stats().cache_hits, 1u);
    EXPECT_EQ(service.stats().disk_hits, 1u);
  }
  std::filesystem::remove(path);
  std::filesystem::remove_all(cache_dir);
}

TEST_F(DetectorSnapshot, DiskTierDisabledServiceBehavesExactlyAsBefore) {
  // No disk_cache directory configured: the tier must not exist, stats stay
  // all-zero/disabled, and scans behave identically to the pre-disk world.
  core::NoodleDetector copy;
  {
    const auto path = temp_snapshot_path("noodle_no_disk.snap");
    detector_->save(path);
    copy.load(path);
    std::filesystem::remove(path);
  }
  serve::DetectionService service(std::move(copy), serve::ServiceConfig{});
  EXPECT_EQ(service.disk_cache(), nullptr);
  const serve::DiskCacheStats stats = service.disk_cache_stats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.entries, 0u);
  expect_identical_report(service.scan((*corpus_)[0].verilog),
                          detector_->scan_verilog((*corpus_)[0].verilog));
  EXPECT_EQ(service.stats().disk_hits, 0u);
}

TEST(DetectionServiceConfig, RejectsUnfittedDetector) {
  EXPECT_THROW(serve::DetectionService(core::NoodleDetector{}, serve::ServiceConfig{}),
               std::invalid_argument);
}

// --- observability: cache-probe accounting, timing, one counter store --------

TEST_F(DetectorSnapshot, CacheProbeAccountingIsExactUnderLintToggles) {
  core::NoodleDetector copy;
  {
    const auto path = temp_snapshot_path("noodle_probes.snap");
    detector_->save(path);
    copy.load(path);
    std::filesystem::remove(path);
  }
  serve::DetectionService service(std::move(copy), serve::ServiceConfig{});
  const std::string& source = (*corpus_)[0].verilog;

  // lint off: first scan misses (absent), second hits.
  service.scan(source);
  service.scan(source);
  // lint on: the cached verdict has no lint findings, so serving it would be
  // wrong — the probe must be a visible lint-state miss, never a phantom hit.
  service.set_lint(true);
  const core::DetectionReport linted = service.scan(source);
  EXPECT_TRUE(linted.lint_ran);
  // Re-cached with lint on: a hit again, and the hit carries the findings.
  const core::DetectionReport linted_hit = service.scan(source);
  EXPECT_TRUE(linted_hit.lint_ran);
  // Toggling back off mismatches the lint-on entry the same way.
  service.set_lint(false);
  EXPECT_FALSE(service.scan(source).lint_ran);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.scans, 3u);

  // The probe taxonomy partitions requests exactly: one outcome per submit.
  EXPECT_EQ(probe_count(service, "hit"), 2u);
  EXPECT_EQ(probe_count(service, "miss_absent"), 1u);
  EXPECT_EQ(probe_count(service, "miss_lint_state"), 2u);
  EXPECT_EQ(probe_count(service, "miss_collision"), 0u);
  EXPECT_EQ(probe_count(service, "miss_bypass"), 0u);
  EXPECT_EQ(probe_count(service, "hit") + probe_count(service, "miss_absent") +
                probe_count(service, "miss_lint_state") +
                probe_count(service, "miss_collision") +
                probe_count(service, "miss_bypass"),
            stats.requests);
}

TEST_F(DetectorSnapshot, StatsReadTheCellsTheExpositionRenders) {
  core::NoodleDetector copy;
  {
    const auto path = temp_snapshot_path("noodle_mirror.snap");
    detector_->save(path);
    copy.load(path);
    std::filesystem::remove(path);
  }
  serve::DetectionService service(std::move(copy), serve::ServiceConfig{});
  for (std::size_t i = 0; i < 6; ++i) {
    service.scan((*corpus_)[i % 3].verilog);
  }

  // The registry's cells are the counters stats() reads, so they hold the
  // values as soon as the requests are answered.
  const auto samples = service.metrics().snapshot();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 6u);
  const obs::Labels model{{"model", serve::kDefaultModelName}};
  EXPECT_EQ(sample_counter(samples, "noodle_requests_total", model), stats.requests);
  EXPECT_EQ(sample_counter(samples, "noodle_cache_hits_total", model), stats.cache_hits);
  EXPECT_EQ(sample_counter(samples, "noodle_scans_total", model), stats.scans);
  EXPECT_EQ(sample_counter(samples, "noodle_batches_total", model), stats.batches);

  // The registry's own rendering shows the same cells.
  std::ostringstream os;
  service.metrics().render_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("noodle_requests_total{model=\"default\"} " +
                      std::to_string(stats.requests)),
            std::string::npos);
}

TEST_F(DetectorSnapshot, ReportsCarryTimingAndDistinctTraceIds) {
  core::NoodleDetector copy;
  {
    const auto path = temp_snapshot_path("noodle_timing.snap");
    detector_->save(path);
    copy.load(path);
    std::filesystem::remove(path);
  }
  serve::DetectionService service(std::move(copy), serve::ServiceConfig{});

  const core::DetectionReport a = service.scan((*corpus_)[0].verilog);
  const core::DetectionReport b = service.scan((*corpus_)[1].verilog);
  const core::DetectionReport hit = service.scan((*corpus_)[0].verilog);

  // Every request gets a distinct nonzero trace id, hits included.
  EXPECT_NE(a.timing.trace_id, 0u);
  EXPECT_NE(b.timing.trace_id, 0u);
  EXPECT_NE(hit.timing.trace_id, 0u);
  EXPECT_NE(a.timing.trace_id, b.timing.trace_id);
  EXPECT_NE(a.timing.trace_id, hit.timing.trace_id);
  EXPECT_NE(b.timing.trace_id, hit.timing.trace_id);

  EXPECT_FALSE(a.timing.from_cache);
  EXPECT_FALSE(b.timing.from_cache);
  EXPECT_TRUE(hit.timing.from_cache);

  // Scanned requests: the total spans submit -> resolve, so it covers the
  // queue wait.
  EXPECT_GT(a.timing.total_us, 0u);
  EXPECT_GE(a.timing.total_us, a.timing.queue_wait_us);
  EXPECT_GE(b.timing.total_us, b.timing.queue_wait_us);

  // The per-stage histograms saw every request: one total recording each.
  const auto samples = service.metrics().snapshot();
  for (const auto& sample : samples) {
    if (sample.name != "noodle_stage_duration_seconds") continue;
    if (sample.labels == obs::Labels{{"stage", "total"}}) {
      EXPECT_EQ(sample.histogram.count, 3u);
    }
  }
}

TEST_F(DetectorSnapshot, VerdictCacheBoundsItsSourceBytes) {
  serve::DetectionService service(core::NoodleDetector(detector_->fitted_model()),
                                  serve::ServiceConfig{});
  // A small module and a ~1 MiB comment: cheap to scan, costly to cache.
  // 80 of them hold more than the byte budget, far fewer than 4 096 entries.
  const auto padded = [&](std::size_t i) {
    std::string source = (*corpus_)[0].verilog + "\n// " + std::to_string(i) + " ";
    source.append(std::size_t{1} << 20, 'x');
    return source;
  };
  constexpr std::size_t kSources = 80;
  for (std::size_t i = 0; i < kSources; ++i) {
    service.scan(padded(i));
    ASSERT_LE(service.cache_bytes(), serve::kCacheByteBudget) << i;
  }
  EXPECT_LT(service.cache_size(), kSources);
  // Only what the budget requires was evicted.
  EXPECT_GT(service.cache_bytes() + padded(0).size(), serve::kCacheByteBudget);

  // Least recently used first: the newest source still hits, the oldest
  // was evicted and scans again.
  const serve::ServiceStats before = service.stats();
  service.scan(padded(kSources - 1));
  EXPECT_EQ(service.stats().cache_hits, before.cache_hits + 1);
  service.scan(padded(0));
  EXPECT_EQ(service.stats().scans, before.scans + 1);
  EXPECT_LE(service.cache_bytes(), serve::kCacheByteBudget);
}

TEST_F(DetectorSnapshot, LintKeepsTheFirstFindingsAndCountsThemAll) {
  // One legal 889 KB line of 60 000 unused wires: each is a W103 finding.
  constexpr std::size_t kWires = 60000;
  std::string source = "module wide(input a, output y);";
  for (std::size_t i = 0; i < kWires; ++i) source += " wire w" + std::to_string(i) + ";";
  source += " assign y = a; endmodule";

  serve::ServiceConfig config;
  config.lint = true;
  serve::DetectionService service(core::NoodleDetector(detector_->fitted_model()),
                                  config);
  const core::DetectionReport report = service.scan(source);
  ASSERT_TRUE(report.lint_ran);
  EXPECT_EQ(report.lint_count, kWires);
  EXPECT_EQ(report.lint_findings.size(), lint::kMaxOwnedFindings);
  for (const lint::OwnedFinding& finding : report.lint_findings) {
    EXPECT_EQ(finding.rule, lint::RuleId::UnusedSignal);
  }
  EXPECT_EQ(report.lint_findings.front().subject, "w0");

  const std::string line = net::protocol::verdict_line(report, "<inline>", false);
  EXPECT_NE(line.find("\tlint=60000:W103@1,"), std::string::npos) << line.substr(0, 120);
  EXPECT_NE(line.find(",+more\t<inline>"), std::string::npos);

  // The counters count every finding, not the kept ones.
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.lint_findings, kWires);
  EXPECT_EQ(stats.lint_by_rule[static_cast<std::size_t>(lint::RuleId::UnusedSignal)],
            kWires);
  // A cache hit answers the same count from the capped entry.
  const core::DetectionReport hit = service.scan(source);
  EXPECT_TRUE(hit.timing.from_cache);
  EXPECT_EQ(hit.lint_count, kWires);
  EXPECT_LE(hit.lint_findings.size(), lint::kMaxOwnedFindings);
}

}  // namespace
}  // namespace noodle
