// The socket fault matrix (util::FaultInjector): every net.* fail point is
// driven against a live ScanServer and the suite asserts the failure
// contract — accept failures retry instead of killing the listener, a read
// reset drops only the failing connection, write failures settle in-flight
// accounting, transient EAGAIN buffers and flushes, an exhausted write
// budget trips the stall watchdog, a fault storm leaks neither fds nor
// connection slots, and the exposition renders the very cells stats() reads.
//
// The service here runs with an EMPTY registry: every scan answers
// "no-model" in one dispatch tick, so the matrix exercises the transport
// without paying for a model fit.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "util/fault_injector.h"

namespace noodle {
namespace {

using namespace std::chrono_literals;

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

struct LineClient {
  net::Fd fd;
  std::string acc;

  bool connect(std::uint16_t port) {
    std::error_code ec;
    fd = net::connect_tcp("127.0.0.1", port, ec);
    return static_cast<bool>(fd);
  }
  bool send_line(const std::string& line) { return send_all(fd.get(), line + "\n"); }

  std::optional<std::string> read_line(int timeout_ms = 10000) {
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
      const ssize_t got = ::recv(fd.get(), buf, sizeof buf, 0);
      if (got < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (got == 0) return std::nullopt;
      acc.append(buf, static_cast<std::size_t>(got));
    }
  }

  bool wait_closed(int timeout_ms = 10000) {
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
      const ssize_t got = ::recv(fd.get(), buf, sizeof buf, 0);
      if (got == 0) return true;
      if (got < 0) return errno != EINTR;  // RST counts as closed too
      acc.append(buf, static_cast<std::size_t>(got));
    }
  }
};

struct ServerHarness {
  net::EventLoop loop;
  net::ScanServer server;
  std::thread thread;

  ServerHarness(serve::DetectionService& service, net::ServerConfig config)
      : server(loop, service, std::move(config)) {
    server.set_on_drained([this] { loop.stop(); });
    server.start();
    thread = std::thread([this] { loop.run(); });
  }
  ~ServerHarness() {
    if (thread.joinable()) {
      loop.stop();
      thread.join();
    }
  }
  std::uint16_t port() const { return server.port(); }
};

std::size_t open_fd_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

bool wait_for(const std::function<bool()>& done, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return done();
}

/// Every test runs the transport against an empty registry: scans resolve
/// to "no-model" in one dispatch tick, no fit required.
class NetFaultsTest : public ::testing::Test {
 protected:
  NetFaultsTest()
      : service_(std::make_shared<serve::ModelRegistry>(), "m") {}

  /// Inline RTL reaches the submit path (a bare path would fail the file
  /// read before ever exercising admission or in-flight accounting); with
  /// the empty registry it resolves to a fast "no-model" status line.
  static constexpr const char* kScan = "~inline module t; endmodule";
  static std::string no_model() {
    return net::protocol::status_line("no-model", "m", net::protocol::kInlineEcho);
  }

  serve::DetectionService service_;
  util::FaultInjector faults_;
};

TEST_F(NetFaultsTest, AcceptFailuresAreRetriedUntilTheFaultClears) {
  ServerHarness harness(service_, net::ServerConfig{});
  util::FaultInjector::Arm arm(faults_);
  faults_.fail_point("net.accept", EMFILE, 2);

  // The handshake completes from the client's side via the backlog; the
  // level-triggered listener retries past both scripted failures.
  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line(kScan));
  EXPECT_EQ(client.read_line(), no_model());
  EXPECT_GE(faults_.hits("net.accept"), 2u);
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.connections, 1u);
}

TEST_F(NetFaultsTest, ReadResetDropsOnlyTheFailingConnection) {
  ServerHarness harness(service_, net::ServerConfig{});
  LineClient victim;
  LineClient bystander;
  ASSERT_TRUE(victim.connect(harness.port()));
  ASSERT_TRUE(bystander.connect(harness.port()));

  {
    util::FaultInjector::Arm arm(faults_);
    faults_.fail_point("net.read", ECONNRESET, 1);
    // Only the victim sends while the fault is armed, so the one scripted
    // failure lands on its read.
    ASSERT_TRUE(victim.send_line(kScan));
    EXPECT_TRUE(victim.wait_closed());
  }

  ASSERT_TRUE(bystander.send_line(kScan));
  EXPECT_EQ(bystander.read_line(), no_model());
  const net::ServerStats stats = harness.server.stats();
  EXPECT_GE(stats.dropped, 1u);
  EXPECT_EQ(stats.connections, 1u);
}

TEST_F(NetFaultsTest, WriteResetMidStreamDropsAndSettlesInflight) {
  ServerHarness harness(service_, net::ServerConfig{});
  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  ASSERT_TRUE(client.send_line(kScan));
  EXPECT_EQ(client.read_line(), no_model());  // write #1 clean

  {
    util::FaultInjector::Arm arm(faults_);
    faults_.fail_point("net.write", ECONNRESET);
    ASSERT_TRUE(client.send_line(kScan));
    EXPECT_TRUE(client.wait_closed());  // write #2 reset mid-stream
  }

  // The dropped connection settles its in-flight unit; nothing leaks into
  // the admission-control gauge, and new connections serve normally. (The
  // client sees the RST mid-eviction, so poll for the counters.)
  EXPECT_TRUE(wait_for([&] {
    const net::ServerStats stats = harness.server.stats();
    return stats.inflight == 0 && stats.dropped >= 1;
  }));
  LineClient fresh;
  ASSERT_TRUE(fresh.connect(harness.port()));
  ASSERT_TRUE(fresh.send_line(kScan));
  EXPECT_EQ(fresh.read_line(), no_model());
}

TEST_F(NetFaultsTest, TransientEagainBuffersTheResponseAndFlushesIt) {
  ServerHarness harness(service_, net::ServerConfig{});
  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));

  util::FaultInjector::Arm arm(faults_);
  faults_.fail_point("net.write", EAGAIN, 1);
  ASSERT_TRUE(client.send_line(kScan));
  // First flush attempt "would block"; the response buffers, EPOLLOUT
  // re-drives it, and the client still gets the whole line.
  EXPECT_EQ(client.read_line(), no_model());
  EXPECT_GE(faults_.hits("net.write"), 2u);
  EXPECT_EQ(harness.server.stats().dropped, 0u);
}

TEST_F(NetFaultsTest, ExhaustedWriteBudgetTripsTheStallWatchdog) {
  net::ServerConfig config;
  config.write_stall_timeout = 100ms;
  ServerHarness harness(service_, config);
  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));

  util::FaultInjector::Arm arm(faults_);
  faults_.short_write("net.write", 4, EAGAIN);
  ASSERT_TRUE(client.send_line(kScan));
  // 4 bytes trickle out, then the budget is dry forever: no drain progress,
  // so the stall watchdog must evict rather than hold the buffer open.
  EXPECT_TRUE(client.wait_closed(5000));
  EXPECT_LT(client.acc.size(), no_model().size() + 1);
  // The client sees the FIN mid-eviction; poll for the counters to settle.
  EXPECT_TRUE(wait_for([&] {
    const net::ServerStats stats = harness.server.stats();
    return stats.dropped >= 1 && stats.connections == 0 && stats.inflight == 0;
  }));
  // The evicted connection's unsent bytes leave the buffered-bytes gauge.
  const obs::Gauge& wbuf = service_.metrics().gauge("noodle_net_wbuf_bytes", "");
  EXPECT_TRUE(wait_for([&] { return wbuf.value() == 0; }));
}

TEST_F(NetFaultsTest, FaultStormLeaksNoFileDescriptorsOrConnectionSlots) {
  ServerHarness harness(service_, net::ServerConfig{});

  // Warm up once so every lazily-created fd (epoll, wakeup, timers) exists
  // before the baseline count.
  {
    LineClient warmup;
    ASSERT_TRUE(warmup.connect(harness.port()));
    ASSERT_TRUE(warmup.send_line(kScan));
    ASSERT_TRUE(warmup.read_line().has_value());
  }
  ASSERT_TRUE(wait_for([&] { return harness.server.stats().connections == 0; }));
  const std::size_t baseline = open_fd_count();

  for (int i = 0; i < 8; ++i) {  // clean churn
    LineClient client;
    ASSERT_TRUE(client.connect(harness.port()));
    ASSERT_TRUE(client.send_line(kScan));
    EXPECT_EQ(client.read_line(), no_model());
  }
  {
    util::FaultInjector::Arm arm(faults_);
    faults_.fail_point("net.read", ECONNRESET);
    for (int i = 0; i < 8; ++i) {  // every request dies on the read
      LineClient client;
      ASSERT_TRUE(client.connect(harness.port()));
      ASSERT_TRUE(client.send_line(kScan));
      EXPECT_TRUE(client.wait_closed());
    }
  }

  ASSERT_TRUE(wait_for([&] { return harness.server.stats().connections == 0; }));
  EXPECT_EQ(open_fd_count(), baseline);
  const net::ServerStats stats = harness.server.stats();
  EXPECT_EQ(stats.accepted, 17u);  // warmup + 8 clean + 8 doomed
  EXPECT_GE(stats.dropped, 8u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST_F(NetFaultsTest, ExpositionRendersTheCellsStatsReads) {
  ServerHarness harness(service_, net::ServerConfig{});
  LineClient client;
  ASSERT_TRUE(client.connect(harness.port()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.send_line(kScan));
    EXPECT_EQ(client.read_line(), no_model());
  }

  // The server counts straight into the service's registry, so a render
  // from this thread shows every request. Only the write bookkeeping may
  // trail the client's read by a moment.
  const obs::Gauge& wbuf = service_.metrics().gauge("noodle_net_wbuf_bytes", "");
  ASSERT_TRUE(wait_for([&] { return wbuf.value() == 0; }));
  std::ostringstream exposition;
  service_.metrics().render_prometheus(exposition);
  const std::string text = exposition.str();
  const net::ServerStats stats = harness.server.stats();
  const auto sample = [&](const std::string& name) -> long {
    const std::size_t pos = text.find("\n" + name + " ");
    if (pos == std::string::npos) return -1;
    return std::stol(text.substr(pos + name.size() + 2));
  };
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(sample("noodle_net_accepted_total"),
            static_cast<long>(stats.accepted));
  EXPECT_EQ(sample("noodle_net_requests_total"),
            static_cast<long>(stats.requests));
  EXPECT_EQ(sample("noodle_net_responses_total"),
            static_cast<long>(stats.responses));
  EXPECT_EQ(sample("noodle_net_shed_total"), static_cast<long>(stats.shed));
  EXPECT_EQ(sample("noodle_net_connections"),
            static_cast<long>(stats.connections));
  EXPECT_EQ(sample("noodle_net_inflight"), static_cast<long>(stats.inflight));
  EXPECT_EQ(sample("noodle_net_wbuf_bytes"), 0);
}

}  // namespace
}  // namespace noodle
