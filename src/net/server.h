#pragma once
// net::ScanServer — noodled's one serving loop: TCP clients (start()) and
// a stdio stream (serve_stream()) speaking the newline-delimited protocol
// of net/protocol.h, multiplexed onto one net::EventLoop thread and mapped
// 1:1 onto DetectionService::submit_async. The loop NEVER blocks on
// inference: verdicts computed on service workers are marshalled back with
// EventLoop::post and stream out per connection in request order.
//
// Robustness is the design, not an afterthought:
//
//   * backpressure — each connection owns a bounded write buffer; past the
//     soft limit the server stops READING that connection (a slow client
//     throttles itself, not its neighbours), past the hard limit the
//     connection is dropped. rbuf is bounded by kMaxLineBytes, pipelined
//     work by max_inflight — per-connection memory is capped everywhere;
//   * watchdogs — idle connections (nothing pending, nothing buffered) and
//     write-stalled clients (buffered bytes, no drain progress) are
//     evicted on wheel timers, so a client that wedges mid-protocol can
//     never hold a connection slot forever;
//   * admission control — once the service has max_inflight socket
//     requests in flight, further requests are answered "BUSY" instantly
//     instead of queueing without bound. Overload degrades crisply, it
//     does not cascade;
//   * deadlines — "~deadline=MS" (or the configured default) propagates
//     into the service, whose workers answer expired requests "TIMEOUT"
//     without scanning them; a net-side wheel timer answers even if every
//     worker wedges. Either way the client gets a line, never a hang;
//   * graceful drain — begin_drain() (SIGTERM, or the "!drain" control
//     line) closes the listener, sheds new requests with BUSY, lets
//     in-flight work finish or deadline out, flushes every write buffer,
//     force-closes laggards after drain_grace, then fires on_drained —
//     noodled flushes the disk cache and exits 0.
//
// The stream is the operator's: its control output and per-request
// diagnostics go to its log, not among the verdicts; it is never answered
// BUSY but stops reading while max_inflight of its requests are
// unanswered; its "!drain" is a barrier holding later lines until every
// earlier answer is out; no watchdog evicts it; its writes block. Its end
// (EOF, a line over kMaxLineBytes) begins the drain; a drain ends its
// reading as EOF would.
//
// Counting: the noodle_net_* counters and gauges are handles into the
// service's obs::MetricsRegistry, registered at construction and updated
// in place on the loop thread; stats() reads those same cells. Servers on
// one service therefore share one set of cells.
//
// Threading: everything here runs on the EventLoop thread except stats()
// (atomic loads, callable anywhere). Destroy the server only after the
// loop has stopped; the destructor drains the service so no completion
// callback can outlive it.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "net/event_loop.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace noodle::net {

/// listen(2) backlog of the accepting socket.
inline constexpr int kListenBacklog = 128;
/// A request line longer than this (no newline yet) is a protocol
/// violation: the connection is dropped.
inline constexpr std::size_t kMaxLineBytes = 1 << 20;
/// Write-buffer backpressure: stop reading past soft, drop past hard.
inline constexpr std::size_t kWbufSoftLimit = 256 * 1024;
inline constexpr std::size_t kWbufHardLimit = 1024 * 1024;

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; see ScanServer::port()
  /// Accepted connections beyond this are closed immediately (counted as
  /// dropped) — the listener itself keeps accepting so the backlog can
  /// never silently fill with zombies.
  std::size_t max_connections = 1024;
  /// Socket requests in flight with the service; excess answers "BUSY".
  /// The stream stops reading while it owes this many answers instead.
  std::size_t max_inflight = 256;
  /// Evict a connection with nothing pending and nothing buffered after
  /// this long without a byte received. Zero disables. Never the stream.
  std::chrono::milliseconds idle_timeout{30000};
  /// Evict a connection whose write buffer made no progress this long.
  /// Zero disables. Never the stream.
  std::chrono::milliseconds write_stall_timeout{10000};
  /// Deadline applied to requests that carry no "~deadline=" flag; zero =
  /// none.
  std::chrono::milliseconds default_deadline{0};
  /// Drain force-closes still-open connections after this grace period.
  std::chrono::milliseconds drain_grace{5000};
};

/// A read of the transport's metrics cells (each field one atomic load).
struct ServerStats {
  std::uint64_t accepted = 0;        ///< connections accepted, the stream included
  std::uint64_t dropped = 0;         ///< connections closed BY the server
                                     ///  (over-cap, watchdog, error, grace)
  std::uint64_t requests = 0;        ///< request lines parsed (no control lines)
  std::uint64_t responses = 0;       ///< response lines queued for write
                                     ///  (TCP control answers included)
  std::uint64_t shed = 0;            ///< requests answered BUSY
  std::uint64_t timeouts = 0;        ///< requests answered TIMEOUT
  std::uint64_t protocol_errors = 0; ///< bad-request lines + oversize lines
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t connections = 0;     ///< gauge: currently open
  std::uint64_t inflight = 0;        ///< gauge: submitted, not yet answered
};

class ScanServer {
 public:
  /// Handles a "!..." control line, returning the text to send back
  /// (multi-line allowed; "" = no response). "!drain" is intercepted by
  /// the server itself before this runs.
  using ControlHandler = std::function<std::string(const std::string& line)>;
  /// Takes the stream's control output and diagnostics, newlines included.
  using StreamLog = std::function<void(std::string_view text)>;

  /// Binds nothing yet — start() does. `service` and `loop` must outlive
  /// the server.
  ScanServer(EventLoop& loop, serve::DetectionService& service, ServerConfig config);
  /// Drains the service so no completion callback can target freed state.
  ~ScanServer();

  ScanServer(const ScanServer&) = delete;
  ScanServer& operator=(const ScanServer&) = delete;

  /// Binds + listens and registers with the loop. Throws std::system_error
  /// on bind failure. After it returns, port() is the actual bound port
  /// (useful with config.port = 0).
  void start();
  std::uint16_t port() const noexcept { return port_; }

  /// Serves the stream: request lines from `in_fd`, answers to `out_fd`.
  /// The caller owns both fds and keeps them open until the loop stops.
  /// Call once, before run() or on the loop thread. Throws
  /// std::system_error if the loop refuses `in_fd`.
  void serve_stream(int in_fd, int out_fd, StreamLog log);
  /// Stream request lines answered with a failure status (TIMEOUT is
  /// none), plus one if the server cut the stream short. Loop thread, or
  /// after the loop has stopped.
  std::uint64_t stream_failures() const noexcept { return stream_failures_; }

  void set_control_handler(ControlHandler handler) { control_ = std::move(handler); }
  /// Toggles the trace= column on verdict lines (the "!trace" control).
  void set_trace(bool on) noexcept { trace_on_ = on; }
  bool trace() const noexcept { return trace_on_; }

  /// Starts the drain state machine (idempotent). Loop thread only — wire
  /// signals through EventLoop::watch_signal, which already delivers there.
  void begin_drain();
  bool draining() const noexcept { return draining_; }
  /// Runs (once, on the loop thread) when the drain completes: listener
  /// closed, every connection flushed and closed, no request unanswered.
  void set_on_drained(std::function<void()> callback) {
    on_drained_ = std::move(callback);
  }

  /// Thread-safe read of the noodle_net_* cells.
  ServerStats stats() const;

 private:
  /// One request (or control response) slot in a connection's pipeline.
  /// Responses stream strictly in request order: a slot's text is written
  /// only once every earlier slot has been written. shared_ptr because the
  /// service completion and the deadline timer both need it after the
  /// connection may already be gone.
  struct Slot {
    std::string model;  ///< for the 5-field status shape
    std::string echo;   ///< path or "<inline>"
    std::string text;   ///< response line(s), set when ready
    std::string failure;  ///< for the stream's log; "" unless a failure status
    bool ready = false;
    bool completed = false;  ///< in-flight accounting settled (first of
                             ///  service completion / deadline / close)
    bool counted = false;    ///< true iff this slot holds an inflight unit
    EventLoop::TimerId deadline_timer = 0;
  };

  struct Connection {
    std::uint64_t id = 0;
    Fd fd;  ///< the socket; empty for the stream, whose caller owns its fds
    int in_fd = -1;
    int out_fd = -1;
    bool stream = false;
    std::string rbuf;
    std::string wbuf;
    std::size_t wbuf_off = 0;
    std::deque<std::shared_ptr<Slot>> pending;
    /// Armed once at accept; reads stamp last_read instead of re-arming.
    EventLoop::TimerId idle_timer = 0;
    std::chrono::steady_clock::time_point last_read;
    EventLoop::TimerId stall_timer = 0;
    bool paused = false;       ///< EPOLLIN dropped for backpressure
    bool want_write = false;   ///< EPOLLOUT armed
    bool half_closed = false;  ///< client EOF; flush pending, then close
    bool held = false;     ///< stream: rbuf holds unhandled lines; reading stops
    bool barrier = false;  ///< stream: "!drain" holds lines until pending empties
    bool reading = false;  ///< stream: in_fd registered with the loop
    std::size_t buffered_bytes() const noexcept { return wbuf.size() - wbuf_off; }
  };

  void on_accept();
  void on_io(std::uint64_t id, std::uint32_t events);
  /// Reads once (level-triggered epoll re-arms); false if the connection
  /// died under this call.
  bool handle_read(std::uint64_t id);
  /// Handles rbuf's complete lines, a stream up to one it must hold; false
  /// if the connection died under it.
  bool handle_lines(std::uint64_t id);
  void handle_line(std::uint64_t id, std::string_view line);
  /// True while the stream owes max_inflight answers, or any past a barrier.
  bool stream_waits(Connection& conn);
  void submit_scan(Connection& conn, const std::string& spec, std::string source,
                   std::shared_ptr<Slot> slot, std::chrono::milliseconds deadline);
  /// Marshalled completion (loop thread): resolves the future into a
  /// response line unless the deadline timer answered first.
  void complete_request(std::uint64_t id, const std::shared_ptr<Slot>& slot,
                        std::future<core::DetectionReport> verdict);
  void deadline_fired(std::uint64_t id, const std::shared_ptr<Slot>& slot);
  /// Flushes after a slot is answered; a held stream takes its next lines.
  void answered(std::uint64_t id);
  /// Settles a slot's in-flight accounting exactly once.
  void settle_slot(Slot& slot);
  void flush_connection(Connection& conn);
  /// Owes nothing and takes nothing more: time to close.
  bool finished(const Connection& conn) const noexcept;
  /// false if the connection died under the write.
  bool write_some(Connection& conn);
  void update_interest(Connection& conn);
  void arm_idle_timer(Connection& conn, std::chrono::milliseconds delay);
  /// Closes the connection if it read nothing for idle_timeout and owes
  /// nothing; otherwise re-arms for the rest of the period.
  void idle_timer_fired(std::uint64_t id);
  void arm_stall_timer(Connection& conn);
  void close_connection(std::uint64_t id, bool server_initiated);
  void check_drained();
  Connection* find(std::uint64_t id);

  /// The noodle_net_* cells in the service's metrics registry.
  struct Metrics {
    obs::Counter& accepted;
    obs::Counter& dropped;
    obs::Counter& requests;
    obs::Counter& responses;
    obs::Counter& shed;
    obs::Counter& timeouts;
    obs::Counter& protocol_errors;
    obs::Counter& bytes_rx;
    obs::Counter& bytes_tx;
    obs::Gauge& connections;
    obs::Gauge& inflight;    ///< also the admission count (max_inflight)
    obs::Gauge& wbuf_bytes;  ///< buffered bytes across all connections
  };
  static Metrics register_metrics(obs::MetricsRegistry& registry);

  EventLoop& loop_;
  serve::DetectionService& service_;
  ServerConfig config_;
  Metrics metrics_;
  Fd listener_;
  std::uint16_t port_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  bool trace_on_ = false;
  bool draining_ = false;
  bool drained_notified_ = false;
  EventLoop::TimerId drain_grace_timer_ = 0;
  ControlHandler control_;
  std::function<void()> on_drained_;
  StreamLog stream_log_;
  std::uint64_t stream_failures_ = 0;
};

}  // namespace noodle::net
