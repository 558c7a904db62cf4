// Tests for the serving loop: net::EventLoop semantics (timer wheel,
// cross-thread post, signal fan-in, always-ready fds), Nagle off on
// accepted sockets, and net::ScanServer end-to-end over real loopback
// sockets — bit-identical serving vs direct submits, strict
// per-connection FIFO ordering, reload-under-load generation consistency,
// BUSY admission control at 4x overload, deadline TIMEOUT propagation,
// idle-client eviction, paths that name no small regular file, and the
// graceful-drain state machine — and over its stdio stream, driven through
// pipes, a file and /dev/null.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "data/dataset.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/service.h"
#include "util/csv.h"
#include "worker_latch.h"

namespace noodle {
namespace {

using namespace std::chrono_literals;

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, TimersFireOnceAndCancelledTimersNever) {
  net::EventLoop loop;
  int fired = 0;
  int cancelled_fired = 0;
  loop.add_timer(10ms, [&] { ++fired; });
  const net::EventLoop::TimerId id = loop.add_timer(10ms, [&] { ++cancelled_fired; });
  loop.cancel_timer(id);
  loop.add_timer(80ms, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cancelled_fired, 0);
}

TEST(EventLoopTest, TimerNeverFiresEarlyAndParksAcrossWheelRevolutions) {
  // 2700ms > the wheel's 512 x 5ms = 2560ms horizon, so this timer must
  // park with a rounds counter and survive a full revolution.
  net::EventLoop loop;
  const auto t0 = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point fired_at;
  loop.add_timer(2700ms, [&] {
    fired_at = std::chrono::steady_clock::now();
    loop.stop();
  });
  loop.run();
  EXPECT_GE(fired_at - t0, 2700ms);
  EXPECT_LT(fired_at - t0, 10s);
}

TEST(EventLoopTest, CancelledTimersReleaseTheirCallbackAtOnce) {
  net::EventLoop loop;
  auto held = std::make_shared<int>(0);
  const net::EventLoop::TimerId id = loop.add_timer(1s, [held] { ++*held; });
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_EQ(loop.timer_count(), 1u);
  loop.cancel_timer(id);
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(loop.timer_count(), 0u);
  loop.cancel_timer(id);  // already gone: a no-op
}

TEST(EventLoopTest, TimerArmedOnAnIdleLoopNeverFiresEarly) {
  // The loop blocks with no timer at all, then a post arms one: the wheel
  // must count its delay from the arming, not from its last tick.
  net::EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::this_thread::sleep_for(300ms);
  std::promise<std::chrono::steady_clock::duration> waited;
  loop.post([&] {
    const auto armed = std::chrono::steady_clock::now();
    loop.add_timer(100ms, [&, armed] {
      waited.set_value(std::chrono::steady_clock::now() - armed);
      loop.stop();
    });
  });
  runner.join();
  EXPECT_GE(waited.get_future().get(), 100ms);
}

TEST(EventLoopTest, TimerArmedWhileTheWheelSleepsNeverFiresEarly) {
  // A far timer lets the wheel sleep past many ticks; one armed meanwhile
  // must still wait out its whole delay.
  net::EventLoop loop;
  loop.add_timer(10s, [] {});
  std::thread runner([&] { loop.run(); });
  std::this_thread::sleep_for(300ms);
  std::promise<std::chrono::steady_clock::duration> waited;
  loop.post([&] {
    const auto armed = std::chrono::steady_clock::now();
    loop.add_timer(100ms, [&, armed] {
      waited.set_value(std::chrono::steady_clock::now() - armed);
      loop.stop();
    });
  });
  runner.join();
  EXPECT_GE(waited.get_future().get(), 100ms);
}

TEST(EventLoopTest, PostedTasksRunOnTheLoopThread) {
  net::EventLoop loop;
  std::thread::id loop_tid;
  std::thread::id runner_tid;
  loop.post([&] { loop_tid = std::this_thread::get_id(); });
  std::thread runner([&] {
    runner_tid = std::this_thread::get_id();
    loop.run();
  });
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) loop.post([&] { ++ran; });
  loop.post([&] { loop.stop(); });
  runner.join();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(loop_tid, runner_tid);
}

TEST(EventLoopTest, ConcurrentPostsEachRunExactlyOnce) {
  // post() writes the wake-up eventfd only into an empty queue; racing
  // posters must still never lose or repeat a task.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  net::EventLoop loop;
  std::vector<int> runs(kThreads * kPerThread, 0);  // touched by the loop only
  std::thread runner([&] { loop.run(); });
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        loop.post([&runs, index = t * kPerThread + i] { ++runs[index]; });
      }
    });
  }
  for (std::thread& poster : posters) poster.join();
  loop.post([&] { loop.stop(); });
  runner.join();
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1), kThreads * kPerThread);
}

TEST(EventLoopTest, PostToAnIdleLoopRunsPromptly) {
  // An idle loop blocks in epoll_wait with no timeout; each post into the
  // empty queue must ring the doorbell again.
  net::EventLoop loop;
  std::thread runner([&] { loop.run(); });
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(20ms);  // let the loop go idle
    auto ran = std::make_shared<std::promise<void>>();  // outlives a late task
    std::future<void> done = ran->get_future();
    loop.post([ran] { ran->set_value(); });
    EXPECT_EQ(done.wait_for(1s), std::future_status::ready) << round;
  }
  loop.post([&] { loop.stop(); });
  runner.join();
}

TEST(EventLoopTest, WatchedSignalsDeliverAsLoopCallbacks) {
  net::EventLoop loop;
  std::atomic<int> got{0};
  std::thread::id cb_tid;
  std::thread::id runner_tid;
  loop.watch_signal(SIGUSR1, [&](int signo) {
    got = signo;
    cb_tid = std::this_thread::get_id();
    loop.stop();
  });
  std::thread runner([&] {
    runner_tid = std::this_thread::get_id();
    loop.run();
  });
  std::raise(SIGUSR1);  // handler writes to the pipe; the LOOP observes it
  runner.join();
  EXPECT_EQ(got.load(), SIGUSR1);
  EXPECT_EQ(cb_tid, runner_tid);
  std::signal(SIGUSR1, SIG_DFL);
}

TEST(EventLoopTest, AlwaysReadyFdsFireEveryRoundUntilModifiedOrRemoved) {
  // epoll refuses a regular file with EPERM; the loop treats it as always
  // ready, as poll(2) does, instead of throwing.
  const std::filesystem::path path = std::filesystem::temp_directory_path() /
                                     ("noodle_always_ready_" + std::to_string(::getpid()));
  std::ofstream(path) << "x\n";
  net::Fd file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  std::filesystem::remove(path);
  ASSERT_TRUE(file);

  net::EventLoop loop;
  int fired = 0;
  int fired_at_pause = -1;
  std::uint32_t seen = 0;
  loop.add(file.get(), EPOLLIN, [&](std::uint32_t events) {
    seen |= events;
    if (++fired == 3) {
      loop.modify(file.get(), 0);
      loop.add_timer(30ms, [&] {
        fired_at_pause = fired;  // no interest, no calls
        loop.modify(file.get(), EPOLLIN);
      });
    } else if (fired == 5) {
      loop.add_timer(30ms, [&] { loop.stop(); });
      loop.remove(file.get());  // destroys this callback: touch nothing after
    }
  });
  loop.run();
  EXPECT_EQ(fired_at_pause, 3);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(seen, static_cast<std::uint32_t>(EPOLLIN));
  // Forgotten: modify() now reaches epoll, which never knew the fd.
  EXPECT_THROW(loop.modify(file.get(), EPOLLIN), std::system_error);
}

// --- sockets -----------------------------------------------------------------

TEST(SocketTest, AcceptedSocketsHaveNagleOff) {
  std::uint16_t port = 0;
  std::error_code ec;
  net::Fd listener = net::listen_tcp("127.0.0.1", port, 4, ec);
  ASSERT_TRUE(listener) << ec.message();
  net::Fd client = net::connect_tcp("127.0.0.1", port, ec);
  ASSERT_TRUE(client) << ec.message();
  struct pollfd pfd = {listener.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  net::Fd accepted(net::checked_accept(listener.get()));
  ASSERT_TRUE(accepted) << std::strerror(errno);
  int nodelay = 0;
  socklen_t len = sizeof nodelay;
  ASSERT_EQ(::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_EQ(nodelay, 1);
}

// --- request grammar -----------------------------------------------------------

TEST(ProtocolTest, RequestLinesSplitOnlyOnRegisteredModelPrefixes) {
  const auto is_model = [](const std::string& name) { return name == "alpha"; };
  const std::string rtl =
      "module m(input [7:0] a, output y); assign y = a[0] ? a[1] : a[2]; endmodule";
  struct Case {
    std::string line;
    std::string spec;
    std::string body;
    bool inline_rtl;
    long deadline_ms;
    bool error;
  };
  const std::vector<Case> cases = {
      {"alpha:x.v", "alpha", "x.v", false, 0, false},
      {"alpha@1:x.v", "alpha@1", "x.v", false, 0, false},
      {"alpha@0:x.v", "", "alpha@0:x.v", false, 0, false},
      {"beta:x.v", "", "beta:x.v", false, 0, false},
      {"C:\\x.v", "", "C:\\x.v", false, 0, false},
      {"~inline " + rtl, "", rtl, true, 0, false},
      {"alpha:~inline " + rtl, "alpha", rtl, true, 0, false},
      {"alpha:~deadline=5 ~inline " + rtl, "alpha", rtl, true, 5, false},
      {"~deadline=5 x.v", "", "x.v", false, 5, false},
      {"~deadline=abc x.v", "", "", false, 0, true},
      {"~frobnicate x.v", "", "", false, 0, true},
      {"~inline", "", "", true, 0, true},
      {"alpha:", "alpha", "", false, 0, true},
  };
  for (const Case& c : cases) {
    const net::protocol::RequestLine got = net::protocol::parse_request_line(c.line, is_model);
    EXPECT_EQ(!got.error.empty(), c.error) << c.line << ": " << got.error;
    if (c.error) continue;
    EXPECT_EQ(got.spec, c.spec) << c.line;
    EXPECT_EQ(got.body, c.body) << c.line;
    EXPECT_EQ(got.inline_rtl, c.inline_rtl) << c.line;
    EXPECT_EQ(got.deadline.count(), c.deadline_ms) << c.line;
  }
}

// --- socket test plumbing ----------------------------------------------------

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t put = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
}

/// Polls `done` every millisecond for up to 10 s; true once it holds.
bool wait_for(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// A blocking line-oriented test client with read deadlines, so a server
/// bug can never hang the suite. It reads with read(2), so `fd` may also
/// be the read end of a pipe.
struct LineClient {
  net::Fd fd;
  std::string acc;

  bool connect(std::uint16_t port) {
    std::error_code ec;
    fd = net::connect_tcp("127.0.0.1", port, ec);
    return static_cast<bool>(fd);
  }
  bool send_line(const std::string& line) { return send_all(fd.get(), line + "\n"); }

  std::optional<std::string> read_line(int timeout_ms = 30000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t pos = acc.find('\n');
      if (pos != std::string::npos) {
        std::string line = acc.substr(0, pos);
        acc.erase(0, pos + 1);
        return line;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return std::nullopt;
      struct pollfd pfd = {fd.get(), POLLIN, 0};
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      const int ready = ::poll(&pfd, 1, std::max(1, wait_ms));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (ready == 0) return std::nullopt;
      char buf[4096];
      const ssize_t got = ::read(fd.get(), buf, sizeof buf);
      if (got < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (got == 0) return std::nullopt;  // EOF with no complete line
      acc.append(buf, static_cast<std::size_t>(got));
    }
  }

  /// True once the peer closes (EOF or RST) within the deadline.
  bool wait_closed(int timeout_ms = 30000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      struct pollfd pfd = {fd.get(), POLLIN, 0};
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      const int ready = ::poll(&pfd, 1, std::max(1, wait_ms));
      if (ready < 0 && errno != EINTR) return true;
      if (ready <= 0) continue;
      char buf[4096];
      const ssize_t got = ::read(fd.get(), buf, sizeof buf);
      if (got == 0) return true;
      if (got < 0) return errno != EINTR;  // RST counts as closed
      acc.append(buf, static_cast<std::size_t>(got));
    }
  }
};

/// Runs a ScanServer on its own loop thread. `configure` runs before the
/// loop starts (the window where loop-thread-only setters are legal from
/// the test thread). Drain completion stops the loop.
struct ServerHarness {
  net::EventLoop loop;
  net::ScanServer server;
  std::thread thread;

  ServerHarness(serve::DetectionService& service, net::ServerConfig config,
                const std::function<void(net::ScanServer&)>& configure = {})
      : server(loop, service, std::move(config)) {
    if (configure) configure(server);
    server.set_on_drained([this] { loop.stop(); });
    server.start();
    thread = std::thread([this] { loop.run(); });
  }
  ~ServerHarness() { stop(); }

  void stop() {
    if (thread.joinable()) {
      loop.stop();
      thread.join();
    }
  }
  std::uint16_t port() const { return server.port(); }
};

/// A pipe for feeding a stream. The write end is non-blocking, so
/// write_all() can give up instead of hanging on a server that stopped
/// reading.
struct Pipe {
  net::Fd read_end;
  net::Fd write_end;
  Pipe() {
    int fds[2] = {-1, -1};
    if (::pipe2(fds, O_CLOEXEC) != 0) return;
    read_end.reset(fds[0]);
    write_end.reset(fds[1]);
    net::set_nonblocking(fds[1]);
  }
};

/// Writes all of `data` to a non-blocking fd within 10 s.
bool write_all(int fd, std::string_view data) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!data.empty()) {
    const ssize_t put = ::write(fd, data.data(), data.size());
    if (put > 0) {
      data.remove_prefix(static_cast<std::size_t>(put));
      continue;
    }
    if (put < 0 && errno != EAGAIN && errno != EINTR) return false;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    struct pollfd pfd = {fd, POLLOUT, 0};
    ::poll(&pfd, 1, 100);
  }
  return true;
}

/// Runs a ScanServer whose one connection is a stream: request lines read
/// from `in_fd`, answers written to a pipe the test reads through `out`,
/// the stream's log captured. Drain completion stops the loop.
struct StreamHarness {
  net::EventLoop loop;
  net::ScanServer server;
  net::Fd out_write;
  LineClient out;
  std::mutex log_mu;
  std::string log;
  std::atomic<bool> drained{false};
  std::thread thread;

  StreamHarness(serve::DetectionService& service, net::ServerConfig config, int in_fd,
                const std::function<void(net::ScanServer&)>& configure = {})
      : server(loop, service, std::move(config)) {
    Pipe answers;
    out.fd = std::move(answers.read_end);
    out_write = std::move(answers.write_end);
    set_blocking(out_write.get());  // as stdout normally is
    if (configure) configure(server);
    server.set_on_drained([this] {
      drained = true;
      loop.stop();
    });
    server.serve_stream(in_fd, out_write.get(), [this](std::string_view text) {
      std::lock_guard<std::mutex> lock(log_mu);
      log += text;
    });
    thread = std::thread([this] { loop.run(); });
  }
  ~StreamHarness() { stop(); }

  static void set_blocking(int fd) { ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK); }

  void stop() {
    if (thread.joinable()) {
      loop.stop();
      thread.join();
    }
  }
  /// True once the stream's end drained the server and stopped the loop.
  bool wait_drained() {
    if (!wait_for([&] { return drained.load(); })) return false;
    thread.join();
    return true;
  }
  /// After the loop stopped: every answer line not read yet, up to EOF.
  std::vector<std::string> rest() {
    out_write.reset();
    std::vector<std::string> lines;
    while (std::optional<std::string> line = out.read_line(5000)) lines.push_back(*line);
    return lines;
  }
  std::string log_text() {
    std::lock_guard<std::mutex> lock(log_mu);
    return log;
  }
};

// --- ScanServer fixture ------------------------------------------------------

// Two genuinely different fitted generations, their snapshots, request
// files on disk, and per-request reference verdict-line prefixes. Fitting
// is the expensive part; everything is built once per suite.
class ScanServerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::NoodleDetector gen_a(quick_config(7));
    gen_a.fit(data::build_corpus(quick_corpus(7, 72)));
    core::NoodleDetector gen_b(quick_config(11));
    gen_b.fit(data::build_corpus(quick_corpus(11, 64)));

    dir_ = std::filesystem::temp_directory_path() / "noodle_net_tests";
    std::filesystem::create_directories(dir_);
    path_a_ = dir_ / "gen_a.snap";
    path_b_ = dir_ / "gen_b.snap";
    gen_a.save(path_a_);
    gen_b.save(path_b_);

    files_ = new std::vector<std::string>();
    prefix_a_ = new std::vector<std::string>();
    prefix_b_ = new std::vector<std::string>();
    for (const auto& circuit : data::build_corpus(quick_corpus(19, 8))) {
      const std::filesystem::path file =
          dir_ / ("req_" + std::to_string(files_->size()) + ".v");
      std::ofstream out(file);
      out << circuit.verilog;
      files_->push_back(file.string());
      const data::FeatureSample sample = data::featurize(circuit);
      prefix_a_->push_back(line_prefix(gen_a.scan_features(sample)));
      prefix_b_->push_back(line_prefix(gen_b.scan_features(sample)));
    }
  }

  static void TearDownTestSuite() {
    delete prefix_b_;
    prefix_b_ = nullptr;
    delete prefix_a_;
    prefix_a_ = nullptr;
    delete files_;
    files_ = nullptr;
    std::filesystem::remove_all(dir_);
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

  /// Everything of the expected verdict line up to (and including)
  /// "model=" — label, probability, and region are generation-determined;
  /// the served_by version varies across reloads.
  static std::string line_prefix(const core::DetectionReport& report) {
    std::string line = report.predicted_label == data::kTrojanInfected
                           ? "TROJAN-INFECTED"
                           : "trojan-free";
    line += "\tp=" + util::format_fixed(report.probability, 3);
    line += "\tregion=" + net::protocol::region_text(report.region);
    line += "\tmodel=";
    return line;
  }

  static std::shared_ptr<serve::ModelRegistry> registry_with_a() {
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->reload_from("m", path_a_);
    return registry;
  }

  static std::filesystem::path dir_;
  static std::filesystem::path path_a_;
  static std::filesystem::path path_b_;
  static std::vector<std::string>* files_;
  static std::vector<std::string>* prefix_a_;
  static std::vector<std::string>* prefix_b_;
};

std::filesystem::path ScanServerFixture::dir_;
std::filesystem::path ScanServerFixture::path_a_;
std::filesystem::path ScanServerFixture::path_b_;
std::vector<std::string>* ScanServerFixture::files_ = nullptr;
std::vector<std::string>* ScanServerFixture::prefix_a_ = nullptr;
std::vector<std::string>* ScanServerFixture::prefix_b_ = nullptr;

// --- serving correctness -----------------------------------------------------

TEST_F(ScanServerFixture, ServesBitIdenticalVerdictsInStrictRequestOrder) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  // One pipelined burst; responses must come back in request order even
  // though batching may compute them in any order.
  std::string burst;
  for (const std::string& file : *files_) burst += file + "\n";
  ASSERT_TRUE(send_all(client.fd.get(), burst));
  for (std::size_t i = 0; i < files_->size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "no response for request " << i;
    EXPECT_EQ(*line, (*prefix_a_)[i] + "m@1\t" + (*files_)[i]);
  }

  // A second pass answers from the verdict cache — byte-identical lines.
  ASSERT_TRUE(send_all(client.fd.get(), burst));
  for (std::size_t i = 0; i < files_->size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, (*prefix_a_)[i] + "m@1\t" + (*files_)[i]);
  }
  EXPECT_GE(service.stats().cache_hits, files_->size());
}

TEST_F(ScanServerFixture, InlineRtlScansAndEchoesTheInlineMarker) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line(
      "~inline module t(input a, output b); assign b = a; endmodule"));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(line->rfind("trojan-free\t", 0) == 0 ||
              line->rfind("TROJAN-INFECTED\t", 0) == 0)
      << *line;
  EXPECT_NE(line->find("\tmodel=m@1\t"), std::string::npos) << *line;
  EXPECT_EQ(line->substr(line->rfind('\t') + 1), net::protocol::kInlineEcho);
}

TEST_F(ScanServerFixture, OverDeepInlineRtlIsAParseErrorAndTheConnectionServesOn) {
  // A 200k-term sum fits one request line but folds into a left-deep tree
  // far past verilog::kMaxNestingDepth; before the bound it overflowed the
  // stack of the featurize walkers and took the daemon down.
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  std::string sum = "a";
  for (int i = 1; i < 200000; ++i) sum += "+a";
  const std::string hostile =
      "~inline module t(input a, output y); assign y = " + sum + "; endmodule";
  ASSERT_LT(hostile.size(), net::kMaxLineBytes);

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line(hostile));
  EXPECT_EQ(client.read_line(),
            net::protocol::status_line("parse-error", "m", net::protocol::kInlineEcho));
  ASSERT_TRUE(client.send_line(files_->front()));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind(prefix_a_->front(), 0), 0u) << *line;
  EXPECT_EQ(harness.server.stats().protocol_errors, 0u);
}

TEST_F(ScanServerFixture, UnreadableAndMalformedRequestsGetStatusLines) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line("no_such_file.v"));
  EXPECT_EQ(client.read_line(),
            net::protocol::status_line("read-error", "m", "no_such_file.v"));
  ASSERT_TRUE(client.send_line("~deadline=abc x.v"));
  EXPECT_EQ(client.read_line(),
            net::protocol::status_line("bad-request", "m", "~deadline=abc x.v"));
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST_F(ScanServerFixture, PathsToAnythingButASmallRegularFileAnswerReadErrorAtOnce) {
  // The loop thread reads a request's path. A FIFO without a writer used
  // to block it in open(2), so no other connection was answered, and
  // /dev/zero read until memory ran out.
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  const std::filesystem::path fifo = dir_ / "request.fifo";
  const std::filesystem::path oversized = dir_ / "oversized.v";
  std::filesystem::remove(fifo);  // left over from a killed run
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::ofstream(oversized) << std::string(net::kMaxLineBytes + 1, ' ');
  // Runs before the harness joins its loop: opening and closing the write
  // end releases a loop thread blocked opening the FIFO for reading.
  struct ReleaseFifo {
    std::filesystem::path path;
    ~ReleaseFifo() {
      const int fd = ::open(path.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd >= 0) ::close(fd);
      std::filesystem::remove(path);
    }
  } release{fifo};

  LineClient client;
  LineClient other;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(other.connect(harness.port()));
  ASSERT_TRUE(client.send_line(fifo.string()));
  ASSERT_TRUE(other.send_line("~inline module t(input a, output b); assign b = a; endmodule"));
  const auto answer = other.read_line(100);
  ASSERT_TRUE(answer.has_value()) << "a FIFO path stalled another connection";
  EXPECT_NE(answer->find("\tmodel=m@1\t"), std::string::npos) << *answer;

  for (const std::filesystem::path& path :
       {fifo, std::filesystem::path("/dev/null"), dir_, oversized}) {
    if (path != fifo) {
      ASSERT_TRUE(client.send_line(path.string()));
    }
    EXPECT_EQ(client.read_line(1000),
              net::protocol::status_line("read-error", "m", path.string()));
  }
  std::filesystem::remove(oversized);
}

// --- reload under load (satellite: bit-identical across !reload storm) -------

TEST_F(ScanServerFixture, ReloadStormUnderLoadKeepsEveryVerdictGenerationTrue) {
  serve::DetectionService service(registry_with_a(), "m");
  net::ServerConfig config;
  ServerHarness harness(service, config, [&](net::ScanServer& server) {
    server.set_control_handler([&service](const std::string& line) -> std::string {
      // "!reload m=<path>" — the test's own minimal control surface.
      const std::size_t space = line.find(' ');
      const std::size_t eq = line.find('=');
      const std::string name = line.substr(space + 1, eq - space - 1);
      const serve::ModelHandle handle =
          service.reload(name, std::filesystem::path(line.substr(eq + 1)));
      return "reloaded " + handle->label() + "\n";
    });
  });

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 3; ++t) {
    hammers.emplace_back([&, t] {
      LineClient client;
      if (!client.connect(harness.port())) {
        ++wrong;
        return;
      }
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& file = (*files_)[i % files_->size()];
        const std::size_t idx = i % files_->size();
        if (!client.send_line(file)) {
          ++wrong;
          return;
        }
        const auto line = client.read_line();
        if (!line.has_value()) {
          ++wrong;
          return;
        }
        // The line must be EXACTLY one generation's verdict, served_by a
        // parseable m@N whose parity matches that generation (A published
        // first and every reload alternates B, A, B, ...).
        const std::size_t marker = line->find("\tmodel=m@");
        bool ok = marker != std::string::npos;
        if (ok) {
          const std::size_t ver_start = marker + 9;
          const std::size_t ver_end = line->find('\t', ver_start);
          ok = ver_end != std::string::npos;
          if (ok) {
            const std::string version = line->substr(ver_start, ver_end - ver_start);
            const bool odd = (version.back() - '0') % 2 == 1;
            const std::string& prefix = odd ? (*prefix_a_)[idx] : (*prefix_b_)[idx];
            ok = *line == prefix + "m@" + version + "\t" + file;
          }
        }
        if (!ok) {
          ++wrong;
          ADD_FAILURE() << "generation-torn verdict: " << *line;
          return;
        }
        ++checked;
        ++i;
      }
    });
  }

  LineClient control;
  ASSERT_TRUE(control.connect(harness.port()));
  for (int swap = 0; swap < 6; ++swap) {
    const std::filesystem::path& next = swap % 2 == 0 ? path_b_ : path_a_;
    ASSERT_TRUE(control.send_line("!reload m=" + next.string()));
    const auto reply = control.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->rfind("reloaded m@", 0), 0u) << *reply;
    std::this_thread::sleep_for(30ms);
  }
  stop = true;
  for (std::thread& hammer : hammers) hammer.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(checked.load(), 0u);
}

// --- admission control, deadlines, watchdogs, drain --------------------------

TEST_F(ScanServerFixture, OverloadAtFourTimesAdmissionLimitShedsExactlyTheExcess) {
  serve::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  service_config.max_batch = 16;
  WorkerLatch latch;  // keeps admitted requests in flight
  serve::DetectionService service(registry_with_a(), "m", service_config);
  net::ServerConfig config;
  config.max_inflight = 4;
  ServerHarness harness(service, config);

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  std::string burst;
  for (int i = 0; i < 16; ++i) burst += (*files_)[i % files_->size()] + "\n";
  ASSERT_TRUE(send_all(client.fd.get(), burst));
  ASSERT_TRUE(latch.wait_held());
  ASSERT_TRUE(wait_for([&] { return harness.server.stats().requests == 16; }));
  latch.release();

  // FIFO: requests 0-3 were admitted (verdicts), 4-15 shed (BUSY) — and
  // every one of the 16 gets a line; nothing hangs.
  for (int i = 0; i < 16; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "request " << i << " never answered";
    const std::string& file = (*files_)[static_cast<std::size_t>(i) % files_->size()];
    if (i < 4) {
      EXPECT_EQ(*line, (*prefix_a_)[static_cast<std::size_t>(i)] + "m@1\t" + file);
    } else {
      EXPECT_EQ(*line, net::protocol::status_line("BUSY", "m", file));
    }
  }
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.shed, 12u);
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST_F(ScanServerFixture, ExpiredDeadlinesAnswerTimeoutWithoutScanning) {
  serve::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  WorkerLatch latch;  // holds the first expired request before its pickup
  serve::DetectionService service(registry_with_a(), "m", service_config);
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.send_line("~deadline=1 " + (*files_)[0]));
  }
  ASSERT_TRUE(latch.wait_held());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.read_line(),
              net::protocol::status_line("TIMEOUT", "m", (*files_)[0]));
  }
  // A deadline-free request after the storm still scans normally, and the
  // released worker sweeps the expired three out of the queue unscanned.
  ASSERT_TRUE(client.send_line((*files_)[1]));
  latch.release();
  EXPECT_EQ(client.read_line(), (*prefix_a_)[1] + "m@1\t" + (*files_)[1]);
  EXPECT_EQ(service.stats().deadline_timeouts, 3u);
  EXPECT_EQ(harness.server.stats().timeouts, 3u);
}

TEST_F(ScanServerFixture, IdleConnectionsAreEvictedByTheWatchdog) {
  serve::DetectionService service(registry_with_a(), "m");
  net::ServerConfig config;
  config.idle_timeout = 100ms;
  ServerHarness harness(service, config);

  LineClient idle;
  ASSERT_TRUE(idle.connect(harness.port()));
  // An ACTIVE client keeps its slot across the idle horizon...
  LineClient active;
  ASSERT_TRUE(active.connect(harness.port()));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(active.send_line((*files_)[0]));
    ASSERT_TRUE(active.read_line().has_value());
    std::this_thread::sleep_for(40ms);
  }
  // ...while the idle one was evicted by the watchdog.
  EXPECT_TRUE(idle.wait_closed(5000));
  EXPECT_GE(harness.server.stats().dropped, 1u);
  ASSERT_TRUE(active.send_line((*files_)[0]));
  EXPECT_TRUE(active.read_line().has_value());
}

TEST_F(ScanServerFixture, IdleWatchdogArmsOneTimerPerConnection) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  // 1 000 requests in 100 pipelined bursts: at least 100 separate reads.
  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  for (std::size_t burst = 0; burst < 100; ++burst) {
    std::string lines;
    for (std::size_t i = 0; i < 10; ++i) lines += (*files_)[i % files_->size()] + "\n";
    ASSERT_TRUE(send_all(client.fd.get(), lines));
    for (std::size_t i = 0; i < 10; ++i) ASSERT_TRUE(client.read_line().has_value());
  }
  const auto timers = [&] {
    std::promise<std::size_t> count;
    harness.loop.post([&] { count.set_value(harness.loop.timer_count()); });
    return count.get_future().get();
  };
  EXPECT_EQ(timers(), 1u);
  LineClient second;
  ASSERT_TRUE(second.connect(harness.port()));
  ASSERT_TRUE(second.send_line((*files_)[0]));
  ASSERT_TRUE(second.read_line().has_value());
  EXPECT_EQ(timers(), 2u);
}

TEST_F(ScanServerFixture, DrainAnswersEveryInflightRequestThenClosesAndStopsLoop) {
  serve::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  WorkerLatch latch;  // keeps the five requests in flight until the drain began
  serve::DetectionService service(registry_with_a(), "m", service_config);
  ServerHarness harness(service, net::ServerConfig{});

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += (*files_)[static_cast<std::size_t>(i)] + "\n";
  burst += "!drain\n";
  ASSERT_TRUE(send_all(client.fd.get(), burst));
  ASSERT_TRUE(latch.wait_held());
  // draining() is loop-thread state: read it there. The drain cannot
  // finish, and stop the loop, while the worker is held.
  ASSERT_TRUE(wait_for([&] {
    std::promise<bool> draining;
    harness.loop.post([&] { draining.set_value(harness.server.draining()); });
    return draining.get_future().get();
  }));
  latch.release();

  // All five in-flight verdicts land (drain never abandons admitted work),
  // then the drain acknowledgment, then EOF.
  for (int i = 0; i < 5; ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "in-flight request " << i << " lost by drain";
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(*line, (*prefix_a_)[idx] + "m@1\t" + (*files_)[idx]);
  }
  EXPECT_EQ(client.read_line(), "noodled: draining");
  EXPECT_TRUE(client.wait_closed());

  // Drain completion stopped the loop; the listener is gone.
  harness.thread.join();
  EXPECT_TRUE(harness.server.draining());
  LineClient late;
  EXPECT_FALSE(late.connect(harness.port()));
  EXPECT_EQ(service.stats().deadline_timeouts, 0u);
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.connections, 0u);
}

TEST_F(ScanServerFixture, TraceToggleAddsTheTraceColumnToSocketVerdicts) {
  serve::DetectionService service(registry_with_a(), "m");
  ServerHarness harness(service, net::ServerConfig{});

  std::atomic<bool> applied{false};
  harness.loop.post([&] {
    harness.server.set_trace(true);
    applied = true;
  });
  while (!applied.load()) std::this_thread::sleep_for(1ms);

  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line((*files_)[0]));
  const auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t pos; (pos = line->find('\t', start)) != std::string::npos;
       start = pos + 1) {
    fields.push_back(line->substr(start, pos - start));
  }
  fields.push_back(line->substr(start));
  ASSERT_EQ(fields.size(), 6u) << *line;
  EXPECT_EQ(fields[4].rfind("trace=", 0), 0u) << *line;
}

// --- the stdio stream ------------------------------------------------------

TEST_F(ScanServerFixture, StdioStreamWritesEachVerdictBeforeTheNextLine) {
  serve::DetectionService service(registry_with_a(), "m");
  Pipe in;
  StreamHarness harness(service, net::ServerConfig{}, in.read_end.get());
  for (std::size_t i = 0; i < 3; ++i) {
    // The input stays open and nothing follows: the answer comes anyway.
    ASSERT_TRUE(write_all(in.write_end.get(), (*files_)[i] + "\n"));
    EXPECT_EQ(harness.out.read_line(5000), (*prefix_a_)[i] + "m@1\t" + (*files_)[i]);
  }
}

TEST_F(ScanServerFixture, StdioStreamDrainIsABarrierSoTheSecondPassIsAllCacheHits) {
  WorkerLatch latch;  // keeps the first pass in flight
  serve::DetectionService service(registry_with_a(), "m");
  Pipe in;
  StreamHarness harness(service, net::ServerConfig{}, in.read_end.get());

  std::string pass;
  for (const std::string& file : *files_) pass += file + "\n";
  ASSERT_TRUE(write_all(in.write_end.get(), pass + "!drain\n" + pass));
  ASSERT_TRUE(latch.wait_held());
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(harness.server.stats().requests, files_->size());  // the barrier holds
  latch.release();

  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < files_->size(); ++i) {
      EXPECT_EQ(harness.out.read_line(), (*prefix_a_)[i] + "m@1\t" + (*files_)[i])
          << "round " << round;
    }
  }
  EXPECT_EQ(service.stats().scans, files_->size());
  EXPECT_EQ(service.stats().cache_hits, files_->size());
  EXPECT_EQ(harness.log_text(), "");  // "!drain" prints nothing
}

TEST_F(ScanServerFixture, StdioStreamBurstOfThreeTimesMaxInflightGetsEveryVerdictAndNoBusy) {
  serve::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  WorkerLatch latch;  // keeps admitted requests in flight
  serve::DetectionService service(registry_with_a(), "m", service_config);
  net::ServerConfig config;
  config.max_inflight = 4;
  Pipe in;
  StreamHarness harness(service, config, in.read_end.get());

  std::string burst;
  for (std::size_t i = 0; i < 12; ++i) burst += (*files_)[i % files_->size()] + "\n";
  ASSERT_TRUE(write_all(in.write_end.get(), burst));
  ASSERT_TRUE(latch.wait_held());
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(harness.server.stats().requests, 4u);  // reading stopped at the limit
  latch.release();

  for (std::size_t i = 0; i < 12; ++i) {
    const std::string& file = (*files_)[i % files_->size()];
    EXPECT_EQ(harness.out.read_line(), (*prefix_a_)[i % files_->size()] + "m@1\t" + file)
        << "request " << i;
  }
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.requests, 12u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST_F(ScanServerFixture, StdioStreamControlOutputReachesOnlyTheLog) {
  serve::ServiceConfig service_config;
  service_config.cache_capacity = 0;
  WorkerLatch latch;  // holds the deadline request until the net timer answers it
  serve::DetectionService service(registry_with_a(), "m", service_config);
  Pipe in;
  StreamHarness harness(service, net::ServerConfig{}, in.read_end.get(),
                        [](net::ScanServer& server) {
                          server.set_control_handler([](const std::string& line) {
                            return "control " + line + "\n";
                          });
                        });
  ASSERT_TRUE(write_all(in.write_end.get(), "!models\n~deadline=1 " + (*files_)[0] +
                                                "\nno_such_file.v\n~deadline=abc x.v\n"
                                                "!stats\n"));
  in.write_end.reset();
  EXPECT_EQ(harness.out.read_line(),
            net::protocol::status_line("TIMEOUT", "m", (*files_)[0]));
  latch.release();
  ASSERT_TRUE(harness.wait_drained());

  EXPECT_EQ(harness.rest(),
            (std::vector<std::string>{
                net::protocol::status_line("read-error", "m", "no_such_file.v"),
                net::protocol::status_line("bad-request", "m", "~deadline=abc x.v")}));
  const std::string log = harness.log_text();
  EXPECT_NE(log.find("control !models\n"), std::string::npos) << log;
  EXPECT_NE(log.find("control !stats\n"), std::string::npos) << log;
  EXPECT_NE(log.find("noodled: no_such_file.v: "), std::string::npos) << log;
  EXPECT_NE(log.find("noodled: bad request: "), std::string::npos) << log;
  EXPECT_EQ(log.find((*files_)[0]), std::string::npos) << log;  // TIMEOUT is no failure
  EXPECT_EQ(harness.server.stream_failures(), 2u);
  EXPECT_EQ(harness.server.stats().responses, 3u);
}

TEST_F(ScanServerFixture, StdioStreamIsNeverEvictedWhenIdle) {
  serve::DetectionService service(registry_with_a(), "m");
  net::ServerConfig config;
  config.idle_timeout = 50ms;
  config.write_stall_timeout = 50ms;
  Pipe in;
  StreamHarness harness(service, config, in.read_end.get());
  std::this_thread::sleep_for(300ms);
  ASSERT_TRUE(write_all(in.write_end.get(), (*files_)[0] + "\n"));
  EXPECT_EQ(harness.out.read_line(5000), (*prefix_a_)[0] + "m@1\t" + (*files_)[0]);
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.connections, 1u);
}

TEST_F(ScanServerFixture, StdioStreamAnswersEveryLineAtEofThenStopsTheLoop) {
  serve::DetectionService service(registry_with_a(), "m");
  Pipe in;
  StreamHarness harness(service, net::ServerConfig{}, in.read_end.get());
  std::string lines;
  for (const std::string& file : *files_) lines += file + "\n";
  lines += (*files_)[0];  // a last line without its newline is still a line
  ASSERT_TRUE(write_all(in.write_end.get(), lines));
  in.write_end.reset();
  ASSERT_TRUE(harness.wait_drained());

  const std::vector<std::string> answers = harness.rest();
  ASSERT_EQ(answers.size(), files_->size() + 1);
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const std::size_t idx = i % files_->size();
    EXPECT_EQ(answers[i], (*prefix_a_)[idx] + "m@1\t" + (*files_)[idx]);
  }
  EXPECT_EQ(harness.server.stream_failures(), 0u);
  EXPECT_EQ(harness.server.stats().connections, 0u);
}

TEST_F(ScanServerFixture, StdioStreamFromAFileOrDevNullDrainsAndStopsTheLoop) {
  // epoll refuses both with EPERM; the loop reads them as always ready.
  const std::filesystem::path list = dir_ / "requests.list";
  {
    std::ofstream out(list);
    for (const std::string& file : *files_) out << file << "\n";
  }
  for (const std::filesystem::path& input : {list, std::filesystem::path("/dev/null")}) {
    serve::DetectionService service(registry_with_a(), "m");
    net::Fd in(::open(input.c_str(), O_RDONLY | O_CLOEXEC));
    ASSERT_TRUE(in) << input;
    StreamHarness harness(service, net::ServerConfig{}, in.get());
    ASSERT_TRUE(harness.wait_drained()) << input;
    const std::vector<std::string> answers = harness.rest();
    const std::size_t expected = input == list ? files_->size() : 0;
    ASSERT_EQ(answers.size(), expected) << input;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(answers[i], (*prefix_a_)[i] + "m@1\t" + (*files_)[i]);
    }
    EXPECT_EQ(harness.server.stream_failures(), 0u) << input;
  }
  std::filesystem::remove(list);
}

TEST_F(ScanServerFixture, StdioStreamLineOverTheCapEndsTheStream) {
  serve::DetectionService service(registry_with_a(), "m");
  Pipe in;
  StreamHarness harness(service, net::ServerConfig{}, in.read_end.get());
  ASSERT_TRUE(write_all(in.write_end.get(), std::string(net::kMaxLineBytes + 1, 'a')));
  ASSERT_TRUE(harness.wait_drained());
  EXPECT_TRUE(harness.rest().empty());
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(harness.server.stream_failures(), 1u);
}

}  // namespace
}  // namespace noodle
