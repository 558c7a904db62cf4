#include "serve/service.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "data/dataset.h"
#include "feat/featurize.h"
#include "util/binary_io.h"
#include "util/fault_injector.h"

namespace noodle::serve {

// ---------------------------------------------------------------------------
// DetectionService
// ---------------------------------------------------------------------------

namespace {

std::shared_ptr<ModelRegistry> require_registry(std::shared_ptr<ModelRegistry> registry) {
  if (!registry) {
    throw std::invalid_argument("DetectionService: registry must not be null");
  }
  return registry;
}

ServiceConfig validate(ServiceConfig config) {
  if (config.max_batch == 0) {
    throw std::invalid_argument("DetectionService: max_batch must be positive");
  }
  if (config.workers == 0) {
    throw std::invalid_argument("DetectionService: workers must be positive");
  }
  return config;
}

std::shared_ptr<ModelRegistry> single_model_registry(core::NoodleDetector detector) {
  std::shared_ptr<const core::FittedModel> model = detector.fitted_model();
  if (!model) {
    throw std::invalid_argument("DetectionService: detector must be fitted");
  }
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish(kDefaultModelName, std::move(model));
  return registry;
}

std::shared_ptr<ModelRegistry> single_model_registry(const std::filesystem::path& snapshot) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->reload_from(kDefaultModelName, snapshot);
  return registry;
}

}  // namespace

void DetectionService::ModelCounters::add_to(ServiceStats& s) const {
  // Outcomes first, requests last. Each request is counted before its
  // outcome, and obs::Counter loads acquire what inc() released, so the
  // requests read below covers every outcome read above.
  s.cache_hits += cache_hits->value();
  s.disk_hits += disk_hits->value();
  s.scans += scans->value();
  s.parse_failures += parse_failures->value();
  s.model_misses += model_misses->value();
  s.deadline_timeouts += deadline_timeouts->value();
  s.batches += batches->value();
  s.max_batch_size =
      std::max(s.max_batch_size, static_cast<std::uint64_t>(max_batch_size->value()));
  s.scan_micros += scan_micros->value();
  s.lint_runs += lint_runs->value();
  for (std::size_t r = 0; r < lint::kRuleCount; ++r) {
    const std::uint64_t findings = lint_by_rule[r]->value();
    s.lint_by_rule[r] += findings;
    s.lint_findings += findings;
  }
  s.requests += requests->value();
}

DetectionService::DetectionService(std::shared_ptr<ModelRegistry> registry,
                                   std::string default_model, ServiceConfig config)
    : registry_(require_registry(std::move(registry))),
      default_model_(std::move(default_model)),
      config_(validate(config)),
      lint_(config_.lint),
      wake_slots_(config_.workers) {
  // Runs before any request can exist (submit() requires a constructed
  // service), so the hot paths always see registered metric handles.
  register_metrics();
  if (!config_.disk_cache.directory.empty()) {
    // After register_metrics() and before any request: the disk tier scans
    // its directory here, off the serving path (there is none yet).
    disk_cache_ = std::make_unique<PersistentVerdictCache>(config_.disk_cache);
  }
  // Last, so a throw above leaves no thread to join.
  idle_.reserve(config_.workers);
  workers_.reserve(config_.workers);
  try {
    for (WakeSlot& slot : wake_slots_) {
      workers_.emplace_back([this, &slot] { worker_loop(slot); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

void DetectionService::register_metrics() {
  static constexpr std::array<const char*, kStageCount> kStageNames = {
      "queue_wait", "featurize", "infer", "lint", "cache_lookup", "total"};
  for (std::size_t stage = 0; stage < kStageCount; ++stage) {
    stage_hist_[stage] = &metrics_.histogram(
        "noodle_stage_duration_seconds",
        "Per-stage request latency; infer is recorded once per batch.",
        {{"stage", kStageNames[stage]}});
  }
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(CacheProbe::kProbeCount)>
      kProbeNames = {"hit", "disk_hit", "miss_absent", "miss_collision",
                     "miss_lint_state", "miss_bypass"};
  for (std::size_t probe = 0; probe < probe_counters_.size(); ++probe) {
    probe_counters_[probe] = &metrics_.counter(
        "noodle_cache_probes_total",
        "Submit-time verdict-cache probes by outcome; outcomes sum to requests.",
        {{"outcome", kProbeNames[probe]}});
  }
  batches_in_flight_ = &metrics_.gauge("noodle_pool_inflight",
                                       "Batches the service workers are scanning.");
}

DetectionService::ModelCounters& DetectionService::model_counters(const std::string& name) {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  // Bound the cells against attacker-chosen names: overflow names share
  // one cell, and a given name maps to the same cell for its lifetime
  // (the map only grows).
  it = counters_.try_emplace(counters_.size() < kMaxTrackedModels ? name : kOverflowCell)
           .first;
  if (it->second) return *it->second;

  const obs::Labels model{{"model", it->first}};
  const auto counter = [&](const char* family, const char* help) {
    return &metrics_.counter(family, help, model);
  };
  auto cell = std::make_unique<ModelCounters>();
  cell->requests = counter("noodle_requests_total", "submit() calls.");
  cell->cache_hits =
      counter("noodle_cache_hits_total", "Requests answered from the LRU verdict cache.");
  cell->disk_hits = counter("noodle_disk_hits_total",
                            "Requests answered from the persistent disk cache tier.");
  cell->scans = counter("noodle_scans_total", "Verdicts computed by a detector.");
  cell->parse_failures =
      counter("noodle_parse_failures_total", "Requests rejected with a parse error.");
  cell->model_misses =
      counter("noodle_model_misses_total", "Requests naming an unknown model/version.");
  cell->deadline_timeouts =
      counter("noodle_deadline_timeouts_total",
              "Requests failed with DeadlineError before being scanned.");
  cell->batches =
      counter("noodle_batches_total", "Single-generation batch groups dispatched.");
  cell->scan_micros = counter("noodle_scan_busy_microseconds_total",
                              "Wall time spent inside detector batch scans.");
  cell->lint_runs =
      counter("noodle_lint_runs_total", "Sources the static-analysis pass covered.");
  for (std::size_t rule = 0; rule < lint::kRuleCount; ++rule) {
    cell->lint_by_rule[rule] = &metrics_.counter(
        "noodle_lint_findings_total", "Lint findings by rule.",
        {{"model", it->first},
         {"rule", lint::rule_info(static_cast<lint::RuleId>(rule)).code}});
  }
  cell->max_batch_size = &metrics_.gauge(
      "noodle_max_batch_size", "Largest coalesced batch group so far.", model);
  it->second = std::move(cell);
  return *it->second;
}

DetectionService::DetectionService(core::NoodleDetector detector, ServiceConfig config)
    : DetectionService(single_model_registry(std::move(detector)), kDefaultModelName,
                       config) {}

DetectionService::DetectionService(const std::filesystem::path& snapshot,
                                   ServiceConfig config)
    : DetectionService(single_model_registry(snapshot), kDefaultModelName, config) {}

DetectionService::~DetectionService() { stop_workers(); }

void DetectionService::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    for (WakeSlot* slot : idle_) {
      slot->woken = true;
      slot->cv.notify_one();
    }
    idle_.clear();
  }
  // Workers answer everything still queued before they return; promises
  // for requests queued after stopping_ never exist because submit()
  // rejects them up front.
  for (std::thread& worker : workers_) worker.join();
}

std::future<core::DetectionReport> DetectionService::submit(std::string verilog_source) {
  return submit_request(ModelSpec{default_model_, 0}, std::move(verilog_source), {}, {});
}

std::future<core::DetectionReport> DetectionService::submit(const std::string& model_spec,
                                                            std::string verilog_source) {
  return submit_request(parse_model_spec(model_spec), std::move(verilog_source), {}, {});
}

void DetectionService::submit_async(std::string verilog_source, SubmitOptions options,
                                    CompletionFn on_complete) {
  submit_request(ModelSpec{default_model_, 0}, std::move(verilog_source), options,
                 std::move(on_complete));
}

void DetectionService::submit_async(const std::string& model_spec,
                                    std::string verilog_source, SubmitOptions options,
                                    CompletionFn on_complete) {
  submit_request(parse_model_spec(model_spec), std::move(verilog_source), options,
                 std::move(on_complete));
}

std::future<core::DetectionReport> DetectionService::submit_request(
    ModelSpec spec, std::string source, SubmitOptions options,
    CompletionFn on_complete) {
  const std::uint64_t submit_nanos = obs::now_nanos();
  const std::uint64_t trace_id = obs::next_trace_id();
  const std::uint64_t hash = util::fnv1a64(source);
  // Sampling the lint flag here (not at pickup) makes set_lint() order
  // deterministically with submission: a toggle affects exactly the
  // requests submitted after it, however the workers batch them.
  const bool want_lint = lint_.load(std::memory_order_relaxed);
  ModelCounters& counters = model_counters(spec.name);
  counters.requests->inc();

  // Cache probe against the generation the spec resolves to right now; the
  // generation id in the key means a reload in between can only cause a
  // miss (and a fresh scan), never a cross-generation verdict.
  CacheProbe probe = CacheProbe::kMissBypass;
  core::DetectionReport cached;
  std::uint64_t lookup_micros = 0;
  if (ModelHandle handle = registry_->try_resolve(spec)) {
    obs::TraceSpan lookup_span(stage_hist_[kStageCacheLookup], &lookup_micros);
    probe = cache_lookup(CacheKey{handle->id(), hash}, source, want_lint, cached);
    if (probe != CacheProbe::kHit && disk_cache_ != nullptr && !want_lint) {
      // Disk tier: consulted only on an in-memory miss, where the
      // alternative is a full featurize+scan. One synchronous record read;
      // lookup() verifies checksum AND full source bytes, and never throws.
      // Lint-on requests skip it — only lint-off verdicts persist.
      const PersistentVerdictCache::Key disk_key{
          feat::kFeatureVersion, handle->model().content_digest(), hash};
      if (disk_cache_->lookup(disk_key, source, cached)) {
        cached.served_by = handle->label();
        // Promote into the in-memory tier: the next probe for this source
        // hits the LRU without touching the disk again.
        cache_store(CacheKey{handle->id(), hash}, source, cached);
        probe = CacheProbe::kDiskHit;
      }
    }
  }
  // Exactly one probe outcome per request: hits and every miss reason
  // (including lint-state mismatches) sum to requests, so `!lint` toggles
  // can never skew the hit/miss accounting (see tests/test_serve.cpp).
  probe_counters_[static_cast<std::size_t>(probe)]->inc();
  if (probe == CacheProbe::kHit || probe == CacheProbe::kDiskHit) {
    // The hit is recorded only now — after the probe validated the source
    // bytes AND the entry's lint state — never before.
    (probe == CacheProbe::kHit ? counters.cache_hits : counters.disk_hits)->inc();
    cached.timing = core::RequestTiming{};
    cached.timing.trace_id = trace_id;
    cached.timing.from_cache = true;
    cached.timing.cache_lookup_us = lookup_micros;
    const std::uint64_t total_nanos = obs::now_nanos() - submit_nanos;
    cached.timing.total_us = total_nanos / 1000;
    stage_hist_[kStageTotal]->record(total_nanos);
    std::promise<core::DetectionReport> ready;
    ready.set_value(std::move(cached));
    if (on_complete) {
      // Cache hits complete synchronously on the submitting thread — the
      // documented submit_async contract (a reactor caller's handler runs
      // inline, exactly like a future that is ready on return).
      on_complete(ready.get_future());
      return {};
    }
    return ready.get_future();
  }
  // An unresolvable spec is not failed here: the batch-time resolve is
  // authoritative (the model may be published microseconds from now).

  Request request;
  request.spec = std::move(spec);
  request.counters = &counters;
  request.source = std::move(source);
  request.key = hash;
  request.lint = want_lint;
  request.submit_nanos = submit_nanos;
  if (options.deadline.count() > 0) {
    request.deadline_nanos =
        submit_nanos + static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               options.deadline)
                               .count());
  }
  request.timing.trace_id = trace_id;
  request.timing.cache_lookup_us = lookup_micros;
  std::future<core::DetectionReport> future = request.promise.get_future();
  if (on_complete) {
    request.future = std::move(future);
    request.on_complete = std::move(on_complete);
    future = {};
  }
  bool rejected = false;
  WakeSlot* wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      if (!request.on_complete) {
        throw std::runtime_error("DetectionService::submit: service is shutting down");
      }
      rejected = true;  // callback fires below, outside the queue lock
    } else {
      queue_.push_back(std::move(request));
      ++outstanding_;
      // The most recently idle worker: notify_one on a shared condition
      // variable would wake the longest idle one, rotating a light load
      // through every worker's cold caches.
      if (!idle_.empty()) {
        wake = idle_.back();
        idle_.pop_back();
        wake->woken = true;
      }
    }
  }
  if (rejected) {
    // Async callers get the rejection through the callback — a reactor
    // must not need try/catch around every enqueue during shutdown.
    request.fail(std::make_exception_ptr(
        std::runtime_error("DetectionService::submit: service is shutting down")));
    return {};
  }
  // Slots outlive every submit, so notifying after the unlock is safe.
  if (wake != nullptr) wake->cv.notify_one();
  return future;
}

core::DetectionReport DetectionService::scan(std::string verilog_source) {
  return submit(std::move(verilog_source)).get();
}

core::DetectionReport DetectionService::scan(const std::string& model_spec,
                                             std::string verilog_source) {
  return submit(model_spec, std::move(verilog_source)).get();
}

void DetectionService::drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  drained_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

ServiceStats DetectionService::stats() const {
  ServiceStats total;
  std::lock_guard<std::mutex> lock(counters_mutex_);
  for (const auto& [name, cell] : counters_) cell->add_to(total);
  return total;
}

ServiceStats DetectionService::stats(const std::string& model_name) const {
  ServiceStats one;
  std::lock_guard<std::mutex> lock(counters_mutex_);
  const auto it = counters_.find(model_name);
  if (it != counters_.end()) it->second->add_to(one);
  return one;
}

std::map<std::string, ServiceStats> DetectionService::stats_by_model() const {
  std::map<std::string, ServiceStats> by_model;
  std::lock_guard<std::mutex> lock(counters_mutex_);
  for (const auto& [name, cell] : counters_) cell->add_to(by_model[name]);
  return by_model;
}

DiskCacheStats DetectionService::disk_cache_stats() const {
  if (!disk_cache_) {
    DiskCacheStats none;
    none.enabled = false;
    return none;
  }
  return disk_cache_->stats();
}

void DetectionService::render_prometheus(std::ostream& os) {
  // Everything the request path counts is already in metrics_. What is
  // left is state with another owner, read as one snapshot each, and
  // structure sizes. Registration is get-or-create and ReloadStats and
  // DiskCacheStats are monotone, so set() is safe here.
  metrics_.gauge("noodle_cache_entries", "Live verdict-cache entries.")
      .set(static_cast<std::int64_t>(cache_size()));
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    metrics_.gauge("noodle_dispatch_queue_depth", "Requests waiting for a worker.")
        .set(static_cast<std::int64_t>(queue_.size()));
    metrics_.gauge("noodle_requests_outstanding", "Submitted but unanswered requests.")
        .set(static_cast<std::int64_t>(outstanding_));
  }
  metrics_.gauge("noodle_models_loaded", "Live generations in the registry.")
      .set(static_cast<std::int64_t>(registry_->size()));
  const ReloadStats reloads = registry_->reload_stats();
  metrics_
      .counter("noodle_reloads_total", "Model publish/reload attempts by result.",
               {{"result", "ok"}})
      .set(reloads.ok);
  metrics_
      .counter("noodle_reloads_total", "Model publish/reload attempts by result.",
               {{"result", "error"}})
      .set(reloads.errors);
  metrics_
      .counter("noodle_reload_busy_microseconds_total",
               "Wall time spent loading and validating snapshots.")
      .set(reloads.load_micros_total);

  if (disk_cache_) {
    // One consistent DiskCacheStats snapshot feeds every disk-tier sample —
    // the same snapshot `!stats` renders, so the two can never disagree.
    const DiskCacheStats disk = disk_cache_->stats();
    const auto disk_counter = [this](const char* name, const char* help,
                                     std::uint64_t value) {
      metrics_.counter(name, help).set(value);
    };
    disk_counter("noodle_disk_cache_hits_total",
                 "Disk-tier lookups answered from a verified record.", disk.hits);
    disk_counter("noodle_disk_cache_misses_total",
                 "Disk-tier lookups that found no usable record.", disk.misses);
    disk_counter("noodle_disk_cache_stores_total",
                 "Verdict records durably published to disk.", disk.stores);
    disk_counter("noodle_disk_cache_drops_total",
                 "Disk stores dropped (full queue, degraded, or shutdown).",
                 disk.drops);
    disk_counter("noodle_disk_cache_corrupt_total",
                 "Record files refused by validation (sum over reasons).",
                 disk.corrupt);
    disk_counter("noodle_disk_cache_evictions_total",
                 "Records unlinked by byte-budget LRU eviction.", disk.evictions);
    disk_counter("noodle_disk_cache_collisions_total",
                 "Disk-tier key hits whose full source bytes differed.",
                 disk.collisions);
    disk_counter("noodle_disk_cache_temps_swept_total",
                 "Crash-orphaned temp files swept at startup.", disk.temps_swept);
    for (std::size_t r = 0; r < disk.skipped.size(); ++r) {
      metrics_
          .counter("noodle_disk_cache_skipped_total",
                   "Record files refused by validation, by reason.",
                   {{"reason", to_string(static_cast<DiskCacheSkip>(r))}})
          .set(disk.skipped[r]);
    }
    metrics_.gauge("noodle_disk_cache_entries", "Live indexed disk records.")
        .set(static_cast<std::int64_t>(disk.entries));
    metrics_.gauge("noodle_disk_cache_bytes", "Total bytes of live disk records.")
        .set(static_cast<std::int64_t>(disk.bytes));
    metrics_
        .gauge("noodle_disk_cache_degraded",
               "1 when a disk failure flipped the tier to memory-only mode.")
        .set(disk.degraded ? 1 : 0);
    metrics_
        .gauge("noodle_disk_cache_enabled",
               "1 while the disk tier accepts lookups and stores.")
        .set(disk.enabled ? 1 : 0);
  }
  metrics_.render_prometheus(os);
}

ModelHandle DetectionService::reload(const std::string& name,
                                     const std::filesystem::path& path) {
  return registry_->reload_from(name, path);
}

std::size_t DetectionService::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

std::size_t DetectionService::cache_bytes() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_bytes_;
}

void DetectionService::worker_loop(WakeSlot& slot) {
  std::size_t answered = 0;  // requests of the last batch
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      // The last batch retires in the same critical section that parks
      // the worker, so once drain() returns every worker is idle again.
      outstanding_ -= answered;
      if (answered != 0 && outstanding_ == 0) drained_cv_.notify_all();
      while (queue_.empty() && !stopping_) {
        // Woken means popped off the stack by a submit (or by
        // stop_workers); another worker may still have taken the request
        // first, and then this one parks again on top.
        slot.woken = false;
        idle_.push_back(&slot);
        slot.cv.wait(lock, [&slot] { return slot.woken; });
      }
      if (queue_.empty()) return;  // stopping, and nothing left to answer
      // An idle worker scans what is waiting now; a batch grows only by
      // what queued while every worker was busy.
      const std::size_t take = std::min(config_.max_batch, queue_.size());
      answered = take;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    batches_in_flight_->add(1);
    if (util::FaultInjector* faults = util::FaultInjector::active()) {
      faults->reach("serve.batch");
    }
    process_batch(std::move(batch));
    batches_in_flight_->sub(1);
  }
}

void DetectionService::process_batch(std::vector<Request> batch) {
  // Partition by requested spec: each group resolves one registry handle
  // and is answered entirely by that generation, so a concurrent
  // reload_from can never mix generations inside a group.
  std::map<std::string, std::vector<Request>> groups;
  for (Request& request : batch) {
    groups[request.spec.to_string()].push_back(std::move(request));
  }
  for (auto& [label, group] : groups) process_group(label, std::move(group));
}

void DetectionService::process_group(const std::string& group_label,
                                     std::vector<Request> group) {
  // Every request in a group names the same model, so they share a cell.
  ModelCounters& counters = *group.front().counters;
  // Queue wait: submit() to this pickup, per request, on the one monotonic
  // clock every span uses.
  const std::uint64_t pickup_nanos = obs::now_nanos();
  for (Request& request : group) {
    const std::uint64_t wait_nanos = pickup_nanos - request.submit_nanos;
    stage_hist_[kStageQueueWait]->record(wait_nanos);
    request.timing.queue_wait_us = wait_nanos / 1000;
  }

  // Deadline sweep — BEFORE resolve and featurize: a request nobody is
  // waiting for anymore must not cost a scan (that is the whole point of
  // deadlines under overload), and expiry answers even when the model
  // does not exist.
  if (std::any_of(group.begin(), group.end(),
                  [&](const Request& r) {
                    return r.deadline_nanos != 0 && pickup_nanos >= r.deadline_nanos;
                  })) {
    std::vector<Request> live;
    live.reserve(group.size());
    for (Request& request : group) {
      if (request.deadline_nanos != 0 && pickup_nanos >= request.deadline_nanos) {
        counters.deadline_timeouts->inc();
        request.fail(std::make_exception_ptr(DeadlineError(
            "DetectionService: deadline expired before dispatch")));
      } else {
        live.push_back(std::move(request));
      }
    }
    group = std::move(live);
    if (group.empty()) return;
  }

  const ModelHandle handle = registry_->try_resolve(group.front().spec);
  if (!handle) {
    const auto error = std::make_exception_ptr(
        RegistryError("DetectionService: no model '" + group_label + "'"));
    counters.model_misses->inc(group.size());
    for (Request& request : group) request.fail(error);
    return;
  }

  // Featurize per request so one malformed source fails only its own
  // future; the surviving samples still share one scan_many pass.
  std::vector<data::FeatureSample> samples;
  std::vector<std::size_t> sample_owner;  // index into group
  std::vector<lint::OwnedFindings> findings;  // parallel to samples
  std::vector<std::pair<std::size_t, std::exception_ptr>> rejected;
  samples.reserve(group.size());
  // The service's worker threads are long-lived, so each worker's
  // thread-local FeaturizeWorkspace (and LintWorkspace) reaches a warm
  // steady state and processes request sources with zero front-end heap
  // allocations. The lint pass must run right after each featurize, while
  // the workspace's arena still holds that parse; each request carries its
  // own submit-time lint flag, so one batch can mix linted and plain scans
  // across a set_lint() toggle.
  feat::FeaturizeWorkspace& workspace = feat::thread_workspace();
  for (std::size_t i = 0; i < group.size(); ++i) {
    try {
      {
        obs::TraceSpan span(stage_hist_[kStageFeaturize],
                            &group[i].timing.featurize_us);
        samples.push_back(data::featurize_source(group[i].source, workspace));
      }
      if (group[i].lint) {
        obs::TraceSpan span(stage_hist_[kStageLint], &group[i].timing.lint_us);
        findings.push_back(core::lint_last_parse(workspace));
      } else {
        findings.emplace_back();
      }
      sample_owner.push_back(i);
    } catch (...) {
      rejected.emplace_back(i, std::current_exception());
    }
  }

  std::uint64_t scan_nanos = 0;
  std::vector<core::DetectionReport> reports;
  std::exception_ptr batch_error;
  if (!samples.empty()) {
    try {
      // The handle pins this generation for the whole batch: a reload
      // swapping `latest` right now neither blocks this scan nor changes
      // its verdicts. The span records the whole-batch scan once into the
      // infer histogram; per-request shares land in timing.infer_us.
      obs::TraceSpan span(stage_hist_[kStageInfer]);
      reports = handle->model().scan_many(samples, /*threads=*/1);
      scan_nanos = span.finish();
    } catch (...) {
      // A batch-level failure must not leave futures dangling (an
      // exception escaping a worker thread would terminate the process).
      batch_error = std::current_exception();
    }
  }
  const std::uint64_t elapsed_micros = scan_nanos / 1000;
  for (core::DetectionReport& report : reports) report.served_by = handle->label();
  std::uint64_t lint_runs = 0;
  std::array<std::uint64_t, lint::kRuleCount> lint_by_rule{};
  for (std::size_t s = 0; s < reports.size(); ++s) {
    if (!group[sample_owner[s]].lint) continue;
    ++lint_runs;
    // Counted before the cap drops owned findings: the counters stay exact.
    for (std::size_t r = 0; r < lint::kRuleCount; ++r) {
      lint_by_rule[r] += findings[s].per_rule[r];
    }
    reports[s].attach_lint(std::move(findings[s]));
  }

  // Stamp per-request timing before counters/cache publication so cached
  // entries and fulfilled futures carry identical breakdowns. infer_us is
  // the request's amortized share of the one batched scan.
  const std::uint64_t resolve_nanos = obs::now_nanos();
  const std::uint64_t infer_share_micros =
      reports.empty() ? 0 : scan_nanos / 1000 / reports.size();
  for (std::size_t s = 0; s < reports.size(); ++s) {
    Request& owner = group[sample_owner[s]];
    owner.timing.infer_us = infer_share_micros;
    const std::uint64_t total_nanos = resolve_nanos - owner.submit_nanos;
    owner.timing.total_us = total_nanos / 1000;
    stage_hist_[kStageTotal]->record(total_nanos);
    reports[s].timing = owner.timing;
  }

  // Publish counters and cache entries BEFORE fulfilling any promise, so a
  // caller who has observed a verdict also observes its counters.
  counters.batches->inc();
  counters.scans->inc(reports.size());
  counters.parse_failures->inc(rejected.size());
  counters.scan_micros->inc(elapsed_micros);
  counters.max_batch_size->raise(static_cast<std::int64_t>(group.size()));
  counters.lint_runs->inc(lint_runs);
  for (std::size_t r = 0; r < lint::kRuleCount; ++r) {
    if (lint_by_rule[r] != 0) counters.lint_by_rule[r]->inc(lint_by_rule[r]);
  }
  if (disk_cache_ != nullptr) {
    // Queue for the disk tier's background writer: the handoff is a queue
    // push, never a disk write, so promise fulfillment below is not held
    // up by persistence. store() itself refuses lint-bearing reports.
    const std::uint64_t digest = handle->model().content_digest();
    for (std::size_t s = 0; s < reports.size(); ++s) {
      disk_cache_->store(
          PersistentVerdictCache::Key{feat::kFeatureVersion, digest,
                                      group[sample_owner[s]].key},
          group[sample_owner[s]].source, reports[s]);
    }
  }
  // After the disk tier copied it, each source moves into its LRU entry:
  // nothing below reads a request's source again.
  for (std::size_t s = 0; s < reports.size(); ++s) {
    cache_store(CacheKey{handle->id(), group[sample_owner[s]].key},
                std::move(group[sample_owner[s]].source), reports[s]);
  }

  for (auto& [owner, error] : rejected) group[owner].fail(error);
  if (batch_error) {
    for (const std::size_t owner : sample_owner) {
      group[owner].fail(batch_error);
    }
  } else {
    for (std::size_t s = 0; s < reports.size(); ++s) {
      group[sample_owner[s]].deliver(std::move(reports[s]));
    }
  }
}

DetectionService::CacheProbe DetectionService::cache_lookup(
    const CacheKey& key, const std::string& source, bool want_lint,
    core::DetectionReport& report) {
  if (config_.cache_capacity == 0) return CacheProbe::kMissBypass;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) return CacheProbe::kMissAbsent;
  if (it->second.source != source) return CacheProbe::kMissCollision;
  // A toggled lint setting makes older entries non-answers: a lint-on
  // caller must get findings, a lint-off caller must not pay for stale
  // ones. The check runs BEFORE any hit side effect (LRU bump, report
  // copy) — and the caller counts the hit only on kHit — so `!lint`
  // toggles can never produce a phantom hit. The rescan re-stores the
  // entry under the current setting.
  if (it->second.report.lint_ran != want_lint) return CacheProbe::kMissLintState;
  lru_.splice(lru_.begin(), lru_, it->second.position);  // bump to most-recent
  report = it->second.report;
  return CacheProbe::kHit;
}

void DetectionService::cache_store(const CacheKey& key, std::string source,
                                   const core::DetectionReport& report) {
  if (config_.cache_capacity == 0) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.position);
    cache_bytes_ = cache_bytes_ - it->second.source.size() + source.size();
    it->second.source = std::move(source);
    it->second.report = report;
  } else {
    lru_.push_front(key);
    cache_bytes_ += source.size();
    cache_.emplace(key, CacheEntry{std::move(source), report, lru_.begin()});
  }
  // Bound the sources by bytes as well as entries: 4 096 entries of legal
  // 1 MiB lines would hold gigabytes.
  while (cache_.size() > config_.cache_capacity || cache_bytes_ > kCacheByteBudget) {
    const auto oldest = cache_.find(lru_.back());
    cache_bytes_ -= oldest->second.source.size();
    cache_.erase(oldest);
    lru_.pop_back();
  }
}

}  // namespace noodle::serve
