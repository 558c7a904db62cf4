// noodled — the detection daemon: load one or more detector snapshots into
// a serve::ModelRegistry, then serve Trojan scans over newline-delimited
// request lines — on stdin (the default), or over TCP with --listen. Both
// run on one serving loop: a net::ScanServer on one net::EventLoop, whose
// one connection without --listen is stdin/stdout. The end-to-end proof
// that fitted models are named, versioned, hot-swappable artifacts:
//
//   ./build/noodled --snapshot detector.noodle --quick    # first run: fits + saves
//   ls designs/*.v | ./build/noodled --snapshot detector.noodle --stats
//   ./build/noodled --model prod=a.snap --model canary=b.snap
//   ./build/noodled --snapshot detector.noodle --listen 7077   # TCP mode
//
// Request lines (identical grammar on stdin and socket — net/protocol.h is
// the single definition):
//   designs/foo.v          scan with the default model; a path must name a
//                          regular file of at most 1 MiB (the line cap),
//                          else the answer is read-error
//   canary:designs/foo.v   scan with model "canary" (latest version)
//   canary@2:designs/foo.v scan with a pinned version
//   ~deadline=250 PATH     answer TIMEOUT instead of scanning if no worker
//                          picks the request up within 250 ms
//   ~inline module m; ...  body is one-line Verilog source, not a path
//   !reload NAME=PATH      hot-swap: load PATH and publish it as the next
//                          version of NAME — in-flight scans are neither
//                          blocked nor re-answered (atomic registry swap)
//   !models                list registered models (and recent reload events)
//   !stats                 print service and transport counters
//   !metrics               dump the Prometheus text exposition
//                          (exposition lines only: `# ...` and `noodle_...`)
//   !drain                 stdin: a barrier that prints nothing — later lines
//                          wait until every earlier answer is out
//                          (deterministic cache state for scripts);
//                          socket: begin graceful drain — stop accepting,
//                          finish in-flight work, then exit 0
//   !lint on|off           toggle the static-analysis pass at runtime
//   !trace on|off          toggle the per-verdict trace= timing column
//   !cache persist on|off  toggle the persistent disk verdict tier at
//                          runtime (needs --disk-cache)
//   !store rescan          sweep the --store directory for new snapshot
//                          archives now (SIGHUP does the same)
// Control output goes to stderr on stdin, back to the issuing client on TCP.
//
// stdin mode: stdout carries only verdict and status lines, in input order,
// each written as soon as it and every earlier one are answered; control
// output and per-request diagnostics go to stderr. There is no BUSY:
// reading stops while --max-inflight requests are unanswered. No watchdog
// evicts stdin. EOF, or SIGTERM/SIGINT, answers every request read, then
// exits; a line over 1 MiB ends the stream. The exit status is 1 iff a
// request line (TIMEOUT excepted) or a control line failed.
//
// Options:
//   --snapshot FILE   load the default model from FILE if it exists;
//                     otherwise fit and save to FILE (train once, scan forever)
//   --model NAME=PATH register snapshot PATH as model NAME (repeatable);
//                     the first --model becomes the default when --snapshot
//                     is absent
//   --refit           fit even when the snapshot exists, then overwrite it
//   --quick           small training config (CI smoke / demos; seconds not
//                     minutes)
//   --batch N         max requests coalesced per detector batch (default 16)
//   --cache N         LRU verdict-cache capacity (default 4096, 0 disables)
//   --workers N       service worker threads (default half the CPUs,
//                     at least 1)
//   --lint            run the lint:: static-analysis pass on every scan and
//                     attach findings to verdict lines as a lint= column
//   --trace           start with the per-verdict trace= column on
//   --metrics-file PATH   dump the Prometheus exposition to PATH every
//                     --metrics-interval seconds and at exit (SIGTERM/SIGINT
//                     drain, then exit) — through util::AtomicFile
//                     (write-temp, fsync, atomic rename), so a scraper never
//                     reads a torn or half-durable file
//   --disk-cache DIR  persistent verdict cache: verdicts are published to
//                     DIR (checksummed record per entry, crash-safe) and
//                     answer in-memory misses across restarts; a fleet can
//                     share one DIR. Disk failure degrades to memory-only —
//                     requests are never failed by persistence
//   --disk-cache-bytes N  byte budget for --disk-cache before LRU records
//                     are evicted (default 64 MiB)
//   --store DIR       content-addressed snapshot store: archives dropped
//                     into DIR as <model>.snap are validated off-thread and
//                     hot-published as the next version of <model>; corrupt
//                     archives are rejected (reload event log) while the old
//                     generation keeps serving. Polled every
//                     --store-interval seconds; SIGHUP rescans immediately
//   --store-interval N  seconds between store polls (default 2; 1..86400)
//   --metrics-interval N  seconds between metrics dumps (default 10;
//                     0..86400; 0 = only at exit)
//   --seed N          training seed (default 42)
//   --stats           print service counters (total + per model) on exit
//   --demo N          write N demo circuits under ./noodled_demo/ and print
//                     their paths to stdout, then exit — composable with a
//                     serving run:  noodled --demo 6 | noodled --snapshot S
//
// Serving loop (net::ScanServer; see DESIGN.md §11):
//   --listen PORT     serve the request grammar over TCP instead of stdin,
//                     which stays unread (port 0 = kernel-assigned; the
//                     bound port is printed to stderr as "noodled: listening
//                     on ADDR:PORT"). SIGTERM/SIGINT begin a graceful drain:
//                     stop accepting, answer BUSY to new work, finish or
//                     deadline-out in-flight scans, flush the disk cache,
//                     exit 0
//   --bind ADDR       listen address (default 127.0.0.1)
//   --max-conns N     connection cap; excess accepts close immediately
//                     (default 1024)
//   --max-inflight N  socket scans in flight with the service; excess
//                     answers BUSY instantly (default 256). On stdin,
//                     reading stops while this many are unanswered
//   --deadline-ms N   default per-request deadline for requests that carry
//                     no ~deadline= flag (default 0 = none)
//   --net-idle-ms N   evict TCP connections idle this long (default 30000;
//                     0 off)
//   --net-stall-ms N  evict TCP clients whose write buffer made no progress
//                     this long (default 10000; 0 off)
//   --drain-grace-ms N  force-close laggards this long after drain starts
//                     (default 5000)
//
// Verdict line format (tab-separated):
//   TROJAN-INFECTED|trojan-free|parse-error|read-error|no-model|TIMEOUT|
//   BUSY|bad-request
//       p=...  region=...  model=name@version  [lint=...]  [trace=...]  <path>
// The lint= column appears only on verdicts scanned with lint enabled:
// "lint=0" for a clean design, else "lint=N:CODE@line,CODE@line,..."
// (first findings; N is the full count). The trace= column appears only
// while `!trace on` / --trace is active: one field, microseconds per stage,
//   trace=<id>:cache=hit,lookup=2,total=5            (cache hits)
//   trace=<id>:queue=120,feat=63,infer=85,lint=4,total=311
// so `awk -F'\t'` still sees one column per request attribute.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "lint/lint.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_store.h"
#include "util/atomic_file.h"
#include "util/csv.h"
#include "util/parallel_for.h"
#include "util/string_util.h"

using namespace noodle;

namespace {

struct Options {
  std::filesystem::path snapshot;
  std::vector<std::pair<std::string, std::filesystem::path>> models;
  bool refit = false;
  bool quick = false;
  bool stats = false;
  bool lint = false;
  bool trace = false;
  std::filesystem::path metrics_file;
  std::size_t metrics_interval = 10;
  std::filesystem::path disk_cache_dir;
  std::uint64_t disk_cache_bytes = 64ull << 20;
  std::filesystem::path store_dir;
  std::size_t store_interval = 2;
  std::size_t batch = 16;
  std::size_t cache = 4096;
  /// Half the CPUs: the event loop needs a core of its own, and each
  /// further worker adds its own featurize workspace and malloc arena to
  /// the resident set for little throughput.
  std::size_t workers = std::max<std::size_t>(1, util::resolve_thread_count(0, 0) / 2);
  std::uint64_t seed = 42;
  std::size_t demo = 0;
  int listen = -1;  ///< --listen PORT; -1 = stdin mode, 0 = kernel-assigned
  std::string bind_address = "127.0.0.1";
  std::size_t net_max_conns = 1024;
  std::size_t net_max_inflight = 256;
  std::size_t net_deadline_ms = 0;
  std::size_t net_idle_ms = 30000;
  std::size_t net_stall_ms = 10000;
  std::size_t net_grace_ms = 5000;
};

[[noreturn]] void usage(const char* argv0, const std::string& error = {}) {
  if (!error.empty()) std::cerr << "noodled: " << error << "\n";
  std::cerr << "usage: " << argv0
            << " [--snapshot FILE] [--model NAME=PATH ...] [--refit] [--quick]"
               " [--batch N] [--cache N] [--workers N] [--lint]"
               " [--trace] [--metrics-file PATH] [--metrics-interval N]"
               " [--disk-cache DIR] [--disk-cache-bytes N] [--store DIR]"
               " [--store-interval N] [--seed N] [--stats] [--demo N]"
               " [--listen PORT] [--bind ADDR] [--max-conns N]"
               " [--max-inflight N] [--deadline-ms N] [--net-idle-ms N]"
               " [--net-stall-ms N] [--drain-grace-ms N]\n"
               "reads newline-delimited request lines from stdin, answering on"
               " stdout (or, with --listen, over TCP), until EOF or"
               " SIGTERM/SIGINT:\n"
               "  PATH | MODEL:PATH | MODEL@VER:PATH | ~deadline=MS PATH |"
               " ~inline RTL | !reload NAME=PATH |"
               " !models | !stats | !metrics | !drain | !lint on|off |"
               " !trace on|off | !cache persist on|off | !store rescan\n";
  std::exit(2);
}

/// "NAME=PATH" → {NAME, PATH}; nullopt when either side is empty. Shared
/// by --model flags and !reload control lines so the grammar can't drift.
std::optional<std::pair<std::string, std::filesystem::path>> try_parse_name_path(
    const std::string& value) {
  const std::size_t eq = value.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
    return std::nullopt;
  }
  return {{value.substr(0, eq), std::filesystem::path(value.substr(eq + 1))}};
}

Options parse_options(int argc, char** argv) {
  Options options;
  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  auto next_number = [&](int& i) -> std::uint64_t {
    const std::string flag = argv[i];
    const std::optional<std::uint64_t> value = util::parse_unsigned(next_value(i));
    if (!value) usage(argv[0], "bad numeric value for " + flag);
    return *value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--snapshot") {
      options.snapshot = next_value(i);
    } else if (arg == "--model") {
      const std::string value = next_value(i);
      const auto model = try_parse_name_path(value);
      if (!model) usage(argv[0], "--model wants NAME=PATH, got '" + value + "'");
      options.models.push_back(*model);
    } else if (arg == "--refit") {
      options.refit = true;
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--lint") {
      options.lint = true;
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--metrics-file") {
      options.metrics_file = next_value(i);
    } else if (arg == "--metrics-interval") {
      options.metrics_interval = next_number(i);
    } else if (arg == "--disk-cache") {
      options.disk_cache_dir = next_value(i);
    } else if (arg == "--disk-cache-bytes") {
      options.disk_cache_bytes = next_number(i);
    } else if (arg == "--store") {
      options.store_dir = next_value(i);
    } else if (arg == "--store-interval") {
      options.store_interval = next_number(i);
    } else if (arg == "--batch") {
      options.batch = next_number(i);
    } else if (arg == "--cache") {
      options.cache = next_number(i);
    } else if (arg == "--workers") {
      options.workers = next_number(i);
    } else if (arg == "--seed") {
      options.seed = next_number(i);
    } else if (arg == "--demo") {
      options.demo = next_number(i);
    } else if (arg == "--listen") {
      const std::uint64_t port = next_number(i);
      if (port > 65535) usage(argv[0], "--listen wants a port (0-65535)");
      options.listen = static_cast<int>(port);
    } else if (arg == "--bind") {
      options.bind_address = next_value(i);
    } else if (arg == "--max-conns") {
      options.net_max_conns = next_number(i);
    } else if (arg == "--max-inflight") {
      options.net_max_inflight = next_number(i);
    } else if (arg == "--deadline-ms") {
      options.net_deadline_ms = next_number(i);
    } else if (arg == "--net-idle-ms") {
      options.net_idle_ms = next_number(i);
    } else if (arg == "--net-stall-ms") {
      options.net_stall_ms = next_number(i);
    } else if (arg == "--drain-grace-ms") {
      options.net_grace_ms = next_number(i);
    } else {
      usage(argv[0], "unknown option " + arg);
    }
  }
  if (options.batch == 0) usage(argv[0], "--batch must be positive");
  if (options.workers == 0) usage(argv[0], "--workers must be positive");
  // 0 would sweep back to back; a day is the cap, so the period cannot
  // overflow into a negative clock duration (SIGHUP rescans at any time).
  if (options.store_interval == 0 || options.store_interval > 86400) {
    usage(argv[0], "--store-interval must be 1..86400 seconds");
  }
  // The same cap keeps the dump period a positive clock duration; 0 dumps
  // only at exit.
  if (options.metrics_interval > 86400) {
    usage(argv[0], "--metrics-interval must be 0..86400 seconds");
  }
  if (options.listen >= 0 && options.net_max_conns == 0) {
    usage(argv[0], "--max-conns must be positive");
  }
  if (options.net_max_inflight == 0) usage(argv[0], "--max-inflight must be positive");
  return options;
}

core::DetectorConfig training_config(const Options& options) {
  core::DetectorConfig config;
  config.seed = options.seed;
  if (options.quick) {
    config.gan_target_per_class = 40;
    config.gan.epochs = 30;
    config.fusion.train.epochs = 12;
    config.fusion.train.validation_fraction = 0.0;
  }
  return config;
}

/// Loads or fits the default model and publishes it into the registry.
void publish_default(serve::ModelRegistry& registry, const Options& options) {
  const bool can_load = !options.snapshot.empty() && !options.refit &&
                        std::filesystem::exists(options.snapshot);
  if (can_load) {
    std::cerr << "noodled: loading snapshot " << options.snapshot.string() << "\n";
    registry.reload_from(serve::kDefaultModelName, options.snapshot);
    return;
  }
  std::cerr << "noodled: fitting detector (seed " << options.seed
            << (options.quick ? ", quick config" : "") << ")...\n";
  core::NoodleDetector detector(training_config(options));
  if (options.quick) {
    data::CorpusSpec spec;
    spec.design_count = 96;
    spec.infected_fraction = 0.35;
    spec.seed = options.seed;
    detector.fit(data::build_corpus(spec));
  } else {
    detector.fit_default();
  }
  if (!options.snapshot.empty()) {
    detector.save(options.snapshot);
    std::cerr << "noodled: saved snapshot to " << options.snapshot.string() << "\n";
  }
  registry.publish(serve::kDefaultModelName, detector.fitted_model(),
                   options.snapshot);
}

void print_stats_line(std::ostream& out, const char* label,
                      const serve::ServiceStats& stats) {
  out << "noodled stats[" << label << "]: requests=" << stats.requests
      << " cache_hits=" << stats.cache_hits << " disk_hits=" << stats.disk_hits
      << " scans=" << stats.scans << " batches=" << stats.batches
      << " max_batch=" << stats.max_batch_size
      << " parse_failures=" << stats.parse_failures
      << " model_misses=" << stats.model_misses
      << " deadline_timeouts=" << stats.deadline_timeouts
      << " avg_batch=" << util::format_fixed(stats.average_batch_size(), 2)
      << " avg_scan_us=" << util::format_fixed(stats.average_scan_micros(), 1);
  if (stats.lint_runs > 0) {
    out << " lint_runs=" << stats.lint_runs
        << " lint_findings=" << stats.lint_findings;
    for (std::size_t r = 0; r < lint::kRuleCount; ++r) {
      if (stats.lint_by_rule[r] == 0) continue;
      out << " lint[" << lint::rule_info(static_cast<lint::RuleId>(r)).code
          << "]=" << stats.lint_by_rule[r];
    }
  }
  out << "\n";
}

void print_stats(std::ostream& out, const serve::DetectionService& service,
                 const serve::SnapshotStore* store, const net::ScanServer& server) {
  print_stats_line(out, "total", service.stats());
  for (const auto& [name, stats] : service.stats_by_model()) {
    print_stats_line(out, name.c_str(), stats);
  }
  if (service.disk_cache() != nullptr) {
    // One stats() call feeds the whole line; the exposition reads the
    // tier the same way, one snapshot per render.
    const serve::DiskCacheStats disk = service.disk_cache_stats();
    out << "noodled stats[disk-cache]: hits=" << disk.hits
        << " misses=" << disk.misses << " stores=" << disk.stores
        << " drops=" << disk.drops << " corrupt=" << disk.corrupt
        << " evictions=" << disk.evictions << " collisions=" << disk.collisions
        << " temps_swept=" << disk.temps_swept << " loaded=" << disk.loaded
        << " entries=" << disk.entries << " bytes=" << disk.bytes
        << " degraded=" << (disk.degraded ? 1 : 0)
        << " enabled=" << (disk.enabled ? 1 : 0) << "\n";
  }
  if (store != nullptr) {
    const serve::SnapshotStoreStats s = store->stats();
    out << "noodled stats[snapshot-store]: scans=" << s.scans
        << " accepted=" << s.accepted << " rejected=" << s.rejected;
    if (!s.last_error.empty()) out << " last_error=" << s.last_error;
    out << "\n";
  }
  const net::ServerStats n = server.stats();
  out << "noodled stats[net]: accepted=" << n.accepted << " dropped=" << n.dropped
      << " requests=" << n.requests << " responses=" << n.responses
      << " shed=" << n.shed << " timeouts=" << n.timeouts
      << " protocol_errors=" << n.protocol_errors << " bytes_rx=" << n.bytes_rx
      << " bytes_tx=" << n.bytes_tx << " connections=" << n.connections
      << " inflight=" << n.inflight << "\n";
}

void print_models(std::ostream& out, const serve::ModelRegistry& registry) {
  for (const serve::ModelHandle& handle : registry.catalog()) {
    out << "noodled: model " << handle->label()
        << " fusion=" << handle->model().winning_fusion();
    if (!handle->source().empty()) out << " source=" << handle->source().string();
    out << "\n";
  }
  const std::vector<serve::ReloadEvent> events = registry.reload_events();
  constexpr std::size_t kMaxShown = 8;
  const std::size_t shown = std::min(events.size(), kMaxShown);
  for (std::size_t i = events.size() - shown; i < events.size(); ++i) {
    const serve::ReloadEvent& event = events[i];
    const auto epoch_seconds = std::chrono::duration_cast<std::chrono::seconds>(
                                   event.when.time_since_epoch())
                                   .count();
    out << "noodled: reload t=" << epoch_seconds << " " << event.name;
    if (event.ok) {
      out << "@" << event.version << " ok load_us=" << event.load_micros;
    } else {
      out << " FAILED load_us=" << event.load_micros << " error=" << event.error;
    }
    out << "\n";
  }
}

/// Writes the Prometheus exposition to `path` through util::AtomicFile
/// (write-temp in the same directory, fsync, atomic rename): a scraper
/// polling the file either sees the previous complete dump or this one,
/// never a torn — or, after a power loss, half-durable — write.
bool dump_metrics(serve::DetectionService& service, const std::filesystem::path& path) {
  std::ostringstream exposition;
  service.render_prometheus(exposition);
  util::AtomicFile file(path);
  if (!file.write(exposition.str())) return false;
  return !file.commit();
}

/// Everything a "!..." control line may touch.
struct ControlContext {
  serve::DetectionService& service;
  serve::ModelRegistry& registry;
  serve::SnapshotStore* store = nullptr;
  net::ScanServer& server;
};

/// Handles every control line except "!drain", which the server handles
/// itself (a barrier on stdin, the drain state machine on TCP). The server
/// sends `out` to stderr on stdin, to the issuing client on TCP. Returns
/// false for malformed or failed controls.
bool handle_control_line(const std::string& line, ControlContext& ctx,
                         std::ostream& out) {
  std::istringstream control(line);
  std::string command;
  control >> command;
  if (command == "!reload") {
    std::string value;
    control >> value;
    const auto target = try_parse_name_path(value);
    if (!target) {
      out << "noodled: !reload wants NAME=PATH, got '" << value << "'\n";
      return false;
    }
    try {
      const serve::ModelHandle handle =
          ctx.service.reload(target->first, target->second);
      out << "noodled: reloaded " << handle->label() << " from "
          << handle->source().string() << "\n";
    } catch (const std::exception& e) {
      out << "noodled: reload failed: " << e.what() << "\n";
      return false;
    }
  } else if (command == "!models") {
    print_models(out, ctx.registry);
  } else if (command == "!stats") {
    print_stats(out, ctx.service, ctx.store, ctx.server);
  } else if (command == "!cache") {
    std::string subject, value;
    control >> subject >> value;
    if (subject != "persist" || (value != "on" && value != "off")) {
      out << "noodled: !cache wants 'persist on|off', got '" << line << "'\n";
      return false;
    }
    if (ctx.service.disk_cache() == nullptr) {
      out << "noodled: no disk cache configured (--disk-cache DIR)\n";
      return false;
    }
    ctx.service.disk_cache()->set_enabled(value == "on");
    out << "noodled: cache persist " << value << "\n";
  } else if (command == "!store") {
    std::string value;
    control >> value;
    if (value != "rescan") {
      out << "noodled: !store wants 'rescan', got '" << line << "'\n";
      return false;
    }
    if (ctx.store == nullptr) {
      out << "noodled: no snapshot store configured (--store DIR)\n";
      return false;
    }
    const std::size_t published = ctx.store->rescan_now();
    out << "noodled: store rescan published=" << published << "\n";
  } else if (command == "!metrics") {
    ctx.service.render_prometheus(out);
  } else if (command == "!trace") {
    std::string value;
    control >> value;
    if (value != "on" && value != "off") {
      out << "noodled: !trace wants on|off, got '" << value << "'\n";
      return false;
    }
    ctx.server.set_trace(value == "on");
    out << "noodled: trace " << value << "\n";
  } else if (command == "!lint") {
    std::string value;
    control >> value;
    if (value != "on" && value != "off") {
      out << "noodled: !lint wants on|off, got '" << value << "'\n";
      return false;
    }
    ctx.service.set_lint(value == "on");
    out << "noodled: lint " << value << "\n";
  } else {
    out << "noodled: unknown control line '" << line << "'\n";
    return false;
  }
  return true;
}

/// The one serving loop: a net::ScanServer on one net::EventLoop thread,
/// fed by TCP clients with --listen and by stdin/stdout without. Runs until
/// the drain completes — EOF on stdin, SIGTERM/SIGINT, or "!drain" over
/// TCP — then stops the store, writes the last metrics dump and flushes
/// the disk cache. Returns the exit status: 1 if a control line failed, a
/// stdin request line failed (TIMEOUT excepted), or the last dump did.
int run_serving_loop(const Options& options, serve::DetectionService& service,
                     serve::ModelRegistry& registry, serve::SnapshotStore* store) {
  net::EventLoop loop;
  net::ServerConfig config;
  config.bind_address = options.bind_address;
  config.port = static_cast<std::uint16_t>(std::max(options.listen, 0));
  config.max_connections = options.net_max_conns;
  config.max_inflight = options.net_max_inflight;
  config.default_deadline = std::chrono::milliseconds(options.net_deadline_ms);
  config.idle_timeout = std::chrono::milliseconds(options.net_idle_ms);
  config.write_stall_timeout = std::chrono::milliseconds(options.net_stall_ms);
  config.drain_grace = std::chrono::milliseconds(options.net_grace_ms);
  net::ScanServer server(loop, service, config);
  server.set_trace(options.trace);

  ControlContext ctx{service, registry, store, server};
  int failures = 0;
  server.set_control_handler([&](const std::string& line) {
    std::ostringstream out;
    if (!handle_control_line(line, ctx, out)) ++failures;
    return out.str();
  });
  server.set_on_drained([&loop] { loop.stop(); });

  // Signals arrive through the SignalPipe funnel as loop callbacks:
  // SIGTERM/SIGINT begin the drain (and the loop exits when it completes),
  // SIGHUP rescans the snapshot store.
  const auto drain_on_signal = [&server](int signo) {
    std::cerr << "noodled: signal " << signo << " — draining\n";
    server.begin_drain();
  };
  loop.watch_signal(SIGTERM, drain_on_signal);
  loop.watch_signal(SIGINT, drain_on_signal);
  if (store != nullptr) {
    loop.watch_signal(SIGHUP, [store](int) {
      std::cerr << "noodled: SIGHUP — rescanning snapshot store\n";
      store->poke();
    });
  }

  // Periodic metrics dumps ride the loop's own timer wheel; the tick
  // re-arms itself. `dump_tick` outlives loop.run(), so the callback's
  // pointer into it stays valid without a shared_ptr self-cycle.
  auto dump_tick = std::make_shared<std::function<void()>>();
  if (!options.metrics_file.empty() && options.metrics_interval > 0) {
    const auto interval = std::chrono::seconds(options.metrics_interval);
    std::function<void()>* tick = dump_tick.get();
    *dump_tick = [&service, &options, &loop, tick, interval] {
      if (!dump_metrics(service, options.metrics_file)) {
        std::cerr << "noodled: metrics dump to " << options.metrics_file.string()
                  << " failed\n";
      }
      loop.add_timer(interval, *tick);
    };
    loop.add_timer(interval, *dump_tick);
  }

  try {
    if (options.listen < 0) {
      // fd 0 and fd 1 share their file descriptions with the parent shell,
      // so they keep the blocking mode they came with.
      server.serve_stream(STDIN_FILENO, STDOUT_FILENO,
                          [](std::string_view text) { std::cerr << text; });
    } else {
      server.start();
      std::cerr << "noodled: listening on " << options.bind_address << ":"
                << server.port() << "\n";
    }
  } catch (const std::system_error& e) {
    std::cerr << "noodled: cannot serve: " << e.what() << "\n";
    return 1;
  }
  loop.run();

  const net::ServerStats n = server.stats();
  std::cerr << "noodled: drained — accepted=" << n.accepted
            << " requests=" << n.requests << " responses=" << n.responses
            << " shed=" << n.shed << " timeouts=" << n.timeouts << "\n";
  if (store != nullptr) store->stop();
  if (!options.metrics_file.empty()) {
    // Final dump at clean exit, so short-lived runs leave a complete
    // scrape behind even when no interval ever elapsed.
    if (!dump_metrics(service, options.metrics_file)) {
      std::cerr << "noodled: metrics dump to " << options.metrics_file.string()
                << " failed\n";
      ++failures;
    }
  }
  if (service.disk_cache() != nullptr) {
    // Orderly exit gets queued verdicts onto disk; a crash would drop them
    // (by design), but there is no reason to imitate one here.
    service.disk_cache()->flush();
  }
  if (options.stats) print_stats(std::cerr, service, store, server);
  return failures == 0 && server.stream_failures() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);

  if (options.demo > 0) {
    const std::filesystem::path dir = "noodled_demo";
    std::filesystem::create_directories(dir);
    data::CorpusSpec spec;
    spec.design_count = options.demo;
    spec.infected_fraction = 0.25;
    spec.seed = options.seed;
    for (const auto& circuit : data::build_corpus(spec)) {
      const auto path = dir / (circuit.name + (circuit.infected ? ".infected.v" : ".v"));
      std::ofstream out(path);
      out << circuit.verilog;
      std::cout << path.string() << "\n";
    }
    return 0;
  }

  auto registry = std::make_shared<serve::ModelRegistry>();
  // The --model archive being loaded, if any: --refit refits only the
  // --snapshot default, so a rejected --model archive needs its own hint.
  const std::filesystem::path* model_archive = nullptr;
  try {
    for (const auto& [name, path] : options.models) {
      model_archive = &path;
      registry->reload_from(name, path);
      std::cerr << "noodled: loaded model " << name << " from " << path.string()
                << "\n";
    }
    model_archive = nullptr;
    if (!options.snapshot.empty() || options.models.empty()) {
      publish_default(*registry, options);
    }
  } catch (const serve::SnapshotError& e) {
    if (model_archive != nullptr) {
      std::cerr << "noodled: snapshot " << model_archive->string()
                << " rejected: " << e.what() << " (refit it with: noodled --snapshot "
                << model_archive->string() << " --refit)\n";
    } else {
      std::cerr << "noodled: snapshot rejected: " << e.what()
                << " (use --refit to retrain)\n";
    }
    return 1;
  } catch (const serve::RegistryError& e) {
    std::cerr << "noodled: " << e.what() << "\n";
    return 1;
  }
  const std::string default_model = !options.snapshot.empty() || options.models.empty()
                                        ? std::string(serve::kDefaultModelName)
                                        : options.models.front().first;
  print_models(std::cerr, *registry);
  std::cerr << "noodled: serving (default model " << default_model << ", "
            << options.workers << (options.workers == 1 ? " worker" : " workers") << ")\n";

  serve::ServiceConfig service_config;
  service_config.max_batch = options.batch;
  service_config.cache_capacity = options.cache;
  service_config.workers = options.workers;
  service_config.lint = options.lint;
  service_config.disk_cache.directory = options.disk_cache_dir;
  service_config.disk_cache.max_bytes = options.disk_cache_bytes;
  serve::DetectionService service(registry, default_model, service_config);
  if (service.disk_cache() != nullptr) {
    const serve::DiskCacheStats disk = service.disk_cache_stats();
    std::cerr << "noodled: disk cache " << options.disk_cache_dir.string()
              << " loaded=" << disk.loaded << " corrupt=" << disk.corrupt
              << " temps_swept=" << disk.temps_swept
              << (disk.degraded ? " DEGRADED" : "") << "\n";
  }

  // The snapshot-store watcher: archives dropped into --store publish as new
  // model versions; validation failures are logged and the old generation
  // keeps serving. The first sweep runs before serving starts, so archives
  // already in the store are live for the first request line.
  std::unique_ptr<serve::SnapshotStore> store;
  if (!options.store_dir.empty()) {
    serve::SnapshotStoreConfig store_config;
    store_config.directory = options.store_dir;
    store_config.poll_interval = std::chrono::seconds(options.store_interval);
    store = std::make_unique<serve::SnapshotStore>(store_config, *registry,
                                                   service.metrics());
    const std::size_t published = store->rescan_now();
    std::cerr << "noodled: snapshot store " << options.store_dir.string()
              << " published=" << published << "\n";
    store->start();
  }

  return run_serving_loop(options, service, *registry, store.get());
}
