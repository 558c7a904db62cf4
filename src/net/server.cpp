#include "net/server.h"

#include <cerrno>
#include <optional>
#include <poll.h>
#include <string_view>
#include <sys/epoll.h>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "serve/registry.h"
#include "util/atomic_file.h"

namespace noodle::net {

namespace {

/// One read() worth; lines longer than this just take several reads.
constexpr std::size_t kReadChunk = 16 * 1024;
/// Compact a write buffer once this many flushed bytes sit before offset.
constexpr std::size_t kCompactThreshold = 64 * 1024;

}  // namespace

ScanServer::ScanServer(EventLoop& loop, serve::DetectionService& service,
                       ServerConfig config)
    : loop_(loop),
      service_(service),
      config_(std::move(config)),
      metrics_(register_metrics(service.metrics())) {}

ScanServer::Metrics ScanServer::register_metrics(obs::MetricsRegistry& registry) {
  return Metrics{
      registry.counter("noodle_net_accepted_total", "Connections accepted, stdio included."),
      registry.counter("noodle_net_dropped_total",
                       "Connections closed by the server (over-cap, watchdog, error)."),
      registry.counter("noodle_net_requests_total", "Request lines received (no controls)."),
      registry.counter("noodle_net_responses_total",
                       "Response lines queued for write, TCP control answers included."),
      registry.counter("noodle_net_shed_total",
                       "Requests answered BUSY by admission control."),
      registry.counter("noodle_net_timeouts_total",
                       "Requests answered TIMEOUT past a deadline."),
      registry.counter("noodle_net_protocol_errors_total",
                       "Malformed request lines and oversize unframed reads."),
      registry.counter("noodle_net_bytes_rx_total", "Bytes read from connections."),
      registry.counter("noodle_net_bytes_tx_total", "Bytes written to connections."),
      registry.gauge("noodle_net_connections", "Open connections, stdio included."),
      registry.gauge("noodle_net_inflight", "Requests in flight with the service."),
      registry.gauge("noodle_net_wbuf_bytes",
                     "Bytes buffered for write across all connections."),
  };
}

ScanServer::~ScanServer() {
  // After drain() every submit_async completion has already run (the
  // service fulfils callbacks before it counts a request finished), so no
  // service worker can call back into freed server state. Posted-but-unrun
  // loop tasks are inert: the loop must already be stopped (see header).
  service_.drain();
}

void ScanServer::start() {
  std::error_code ec;
  std::uint16_t port = config_.port;
  listener_ = listen_tcp(config_.bind_address, port, kListenBacklog, ec);
  if (!listener_) {
    throw std::system_error(ec, "ScanServer: cannot listen on " +
                                    config_.bind_address + ":" +
                                    std::to_string(config_.port));
  }
  port_ = port;
  loop_.add(listener_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });
}

void ScanServer::serve_stream(int in_fd, int out_fd, StreamLog log) {
  auto conn = std::make_unique<Connection>();
  conn->id = next_conn_id_++;
  conn->in_fd = in_fd;
  conn->out_fd = out_fd;
  conn->stream = true;
  update_interest(*conn);  // registers in_fd, or throws
  stream_log_ = std::move(log);
  connections_.emplace(conn->id, std::move(conn));
  metrics_.accepted.inc();
  metrics_.connections.add(1);
}

ScanServer::Connection* ScanServer::find(std::uint64_t id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : it->second.get();
}

void ScanServer::on_accept() {
  // Accept everything ready (level-triggered — a break on EAGAIN is safe),
  // but cap one round so a connect storm cannot starve existing clients.
  for (int round = 0; round < 64; ++round) {
    Fd fd(checked_accept(listener_.get()));
    if (!fd) {
      // EMFILE/ENFILE/ECONNABORTED: nothing to do but come back later —
      // the watchdogs will reclaim fds if the process is at its limit.
      return;
    }
    if (connections_.size() >= config_.max_connections) {
      // Immediate close (not "leave it in the backlog"): the client gets
      // a crisp RST/EOF instead of a silent hang.
      metrics_.accepted.inc();
      metrics_.dropped.inc();
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = std::move(fd);
    conn->in_fd = conn->out_fd = conn->fd.get();
    const std::uint64_t id = conn->id;
    const int raw_fd = conn->fd.get();
    connections_.emplace(id, std::move(conn));
    loop_.add(raw_fd, EPOLLIN, [this, id](std::uint32_t events) { on_io(id, events); });
    Connection& added = *connections_[id];
    added.last_read = std::chrono::steady_clock::now();
    if (config_.idle_timeout.count() > 0) arm_idle_timer(added, config_.idle_timeout);
    metrics_.accepted.inc();
    metrics_.connections.add(1);
  }
}

void ScanServer::on_io(std::uint64_t id, std::uint32_t events) {
  Connection* conn = find(id);
  if (conn == nullptr) return;
  // A pipe's EPOLLHUP (writer closed) may leave lines to read: a stream
  // reads on to EOF. On a socket both ways are gone.
  const std::uint32_t fatal = conn->stream ? EPOLLERR : EPOLLHUP | EPOLLERR;
  if ((events & fatal) != 0) {
    close_connection(id, /*server_initiated=*/true);
    return;
  }
  if ((events & (EPOLLIN | EPOLLHUP)) != 0) {
    if (!handle_read(id)) return;
  }
  if ((events & EPOLLOUT) != 0) {
    conn = find(id);
    if (conn == nullptr) return;
    if (!write_some(*conn)) return;
    flush_connection(*conn);
  }
}

bool ScanServer::handle_read(std::uint64_t id) {
  Connection* conn = find(id);
  if (conn == nullptr) return false;
  char chunk[kReadChunk];
  const ssize_t n = checked_read(conn->in_fd, chunk, sizeof chunk);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return true;  // level-triggered epoll retries for us
    }
    close_connection(id, /*server_initiated=*/true);
    return false;
  }
  if (n == 0) {
    // Client half-closed: it wants its remaining answers, then a clean
    // close. Stop reading, keep flushing. A last line without its newline
    // is still a line.
    conn->half_closed = true;
    update_interest(*conn);
    if (!conn->rbuf.empty()) {
      conn->rbuf += '\n';
      if (!handle_lines(id)) return false;
    }
    if (finished(*conn)) {
      close_connection(id, /*server_initiated=*/false);
      return false;
    }
    return true;
  }
  metrics_.bytes_rx.inc(static_cast<std::uint64_t>(n));
  conn->rbuf.append(chunk, static_cast<std::size_t>(n));
  conn->last_read = std::chrono::steady_clock::now();

  if (conn->rbuf.size() > kMaxLineBytes &&
      conn->rbuf.find('\n') == std::string::npos) {
    // A "line" the size of the cap with no newline is not a request, it is
    // a memory exhaustion attempt (or a framing bug). Either way: out.
    metrics_.protocol_errors.inc();
    close_connection(id, /*server_initiated=*/true);
    return false;
  }
  return handle_lines(id);
}

bool ScanServer::handle_lines(std::uint64_t id) {
  Connection* conn = find(id);
  if (conn == nullptr) return false;
  // Lines are handled as views into rbuf, which nothing touches until the
  // consumed prefix is erased below; a line whose handling closed the
  // connection ends the loop before the next view is read. A stream is
  // held meanwhile, so no answer closes it with lines left.
  conn->held = conn->stream;
  bool waits = false;
  std::size_t start = 0;
  for (std::size_t nl = conn->rbuf.find('\n'); nl != std::string::npos;
       nl = conn->rbuf.find('\n', start)) {
    if (conn->stream && (waits = stream_waits(*conn))) break;
    std::string_view line(conn->rbuf.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = nl + 1;
    handle_line(id, line);
    conn = find(id);
    if (conn == nullptr) return false;  // the line's handling closed us
  }
  conn->rbuf.erase(0, start);
  if (!conn->stream) return true;
  conn->held = waits;
  update_interest(*conn);
  flush_connection(*conn);  // closes a stream that owes and takes nothing more
  return find(id) != nullptr;
}

bool ScanServer::stream_waits(Connection& conn) {
  if (conn.pending.empty()) conn.barrier = false;
  return conn.pending.size() >= (conn.barrier ? 1 : config_.max_inflight);
}

void ScanServer::handle_line(std::uint64_t id, std::string_view line) {
  Connection* conn = find(id);
  if (conn == nullptr || line.empty()) return;

  if (line.front() == '!') {  // control line
    const bool drain = line.starts_with("!drain");
    if (drain && conn->stream) {
      conn->barrier = true;  // a barrier on the stream; it prints nothing
      return;
    }
    auto slot = std::make_shared<Slot>();
    slot->ready = true;
    if (drain) {
      slot->text = "noodled: draining\n";
      conn->pending.push_back(std::move(slot));
      begin_drain();  // flushes (and may close) every connection, incl. this
      return;
    }
    std::string response = control_ ? control_(std::string(line))
                                    : std::string("noodled: no control handler\n");
    if (!response.empty() && response.back() != '\n') response += '\n';
    if (conn->stream) {  // never among the stream's verdicts
      stream_log_(response);
      return;
    }
    slot->text = std::move(response);
    conn->pending.push_back(std::move(slot));
    flush_connection(*conn);
    return;
  }

  metrics_.requests.inc();
  protocol::RequestLine request = protocol::parse_request_line(
      line, [this](const std::string& name) {
        return static_cast<bool>(
            service_.registry().try_resolve(serve::ModelSpec{name, 0}));
      });
  const std::string model =
      request.spec.empty() ? service_.default_model() : request.spec;

  auto slot = std::make_shared<Slot>();
  slot->model = model;
  slot->echo = request.inline_rtl ? protocol::kInlineEcho : request.body;

  if (!request.error.empty()) {
    slot->echo = std::string(line);  // nothing parsed; echo what we got
    slot->ready = true;
    slot->text = protocol::status_line("bad-request", model, slot->echo) + "\n";
    slot->failure = "bad request: " + request.error;
    metrics_.protocol_errors.inc();
  } else if (!conn->stream &&
             (draining_ || metrics_.inflight.value() >=
                               static_cast<std::int64_t>(config_.max_inflight))) {
    // Admission control: overload (or drain) answers instantly and
    // explicitly. The client can back off; nothing queues unboundedly.
    // The stream was held back instead (stream_waits).
    slot->ready = true;
    slot->text = protocol::status_line("BUSY", model, slot->echo) + "\n";
    metrics_.shed.inc();
  } else {
    // A path reads as much as an inline line may carry, and only from a
    // regular file: a FIFO or a device cannot stall or flood the loop.
    std::optional<std::string> source =
        request.inline_rtl ? std::optional<std::string>(std::move(request.body))
                           : util::read_regular_file(request.body, kMaxLineBytes);
    if (!source) {
      slot->ready = true;
      slot->text = protocol::status_line("read-error", model, slot->echo) + "\n";
      slot->failure = slot->echo + ": not a readable regular file of at most 1 MiB";
    } else {
      const std::chrono::milliseconds deadline =
          request.deadline.count() > 0 ? request.deadline : config_.default_deadline;
      conn->pending.push_back(slot);
      submit_scan(*conn, request.spec, std::move(*source), std::move(slot),
                  deadline);
      return;  // pushed above; submit may already have completed it
    }
  }
  conn->pending.push_back(std::move(slot));
  flush_connection(*conn);
}

void ScanServer::submit_scan(Connection& conn, const std::string& spec,
                             std::string source, std::shared_ptr<Slot> slot,
                             std::chrono::milliseconds deadline) {
  const std::uint64_t id = conn.id;
  slot->counted = true;
  metrics_.inflight.add(1);
  if (deadline.count() > 0) {
    // The net-side guarantee: the CLIENT sees TIMEOUT at the deadline even
    // if every worker is wedged under a pathological batch. Normally the
    // service answers first (its own sweep throws DeadlineError) and this
    // timer is cancelled unfired.
    slot->deadline_timer = loop_.add_timer(
        deadline, [this, id, slot] { deadline_fired(id, slot); });
  }
  serve::SubmitOptions options;
  options.deadline = deadline;
  serve::DetectionService::CompletionFn on_complete =
      [this, id, slot](std::future<core::DetectionReport> verdict) {
        // Runs on a service worker (or inline on the loop thread for cache
        // hits) — marshal to the loop; futures are move-only, so park it
        // in a shared holder the std::function can copy.
        auto holder = std::make_shared<std::future<core::DetectionReport>>(
            std::move(verdict));
        loop_.post([this, id, slot, holder] {
          complete_request(id, slot, std::move(*holder));
        });
      };
  if (spec.empty()) {
    service_.submit_async(std::move(source), options, std::move(on_complete));
  } else {
    service_.submit_async(spec, std::move(source), options, std::move(on_complete));
  }
}

void ScanServer::settle_slot(Slot& slot) {
  slot.completed = true;
  if (slot.counted) {
    slot.counted = false;
    metrics_.inflight.sub(1);
  }
  if (slot.deadline_timer != 0) {
    loop_.cancel_timer(slot.deadline_timer);
    slot.deadline_timer = 0;
  }
}

void ScanServer::complete_request(std::uint64_t id, const std::shared_ptr<Slot>& slot,
                                  std::future<core::DetectionReport> verdict) {
  if (slot->completed) return;  // deadline timer (or a close) answered first
  settle_slot(*slot);
  std::string text;
  try {
    const core::DetectionReport report = verdict.get();
    text = protocol::verdict_line(report, slot->echo, trace_on_);
  } catch (const serve::DeadlineError&) {
    text = protocol::status_line("TIMEOUT", slot->model, slot->echo);
    metrics_.timeouts.inc();
  } catch (const serve::RegistryError& e) {
    text = protocol::status_line("no-model", slot->model, slot->echo);
    slot->failure = slot->echo + ": " + e.what();
  } catch (const std::exception& e) {
    text = protocol::status_line("parse-error", slot->model, slot->echo);
    slot->failure = slot->echo + ": " + e.what();
  }
  slot->text = text + "\n";
  slot->ready = true;
  answered(id);
}

void ScanServer::deadline_fired(std::uint64_t id, const std::shared_ptr<Slot>& slot) {
  slot->deadline_timer = 0;
  if (slot->completed) return;  // the verdict won the race
  settle_slot(*slot);
  slot->text = protocol::status_line("TIMEOUT", slot->model, slot->echo) + "\n";
  slot->ready = true;
  metrics_.timeouts.inc();
  answered(id);
}

void ScanServer::answered(std::uint64_t id) {
  Connection* conn = find(id);
  if (conn == nullptr) return;  // client left before its answer; drop it
  const bool held = conn->held;
  flush_connection(*conn);
  if (held) handle_lines(id);
}

void ScanServer::flush_connection(Connection& conn) {
  // Responses stream strictly in request order: drain the ready prefix of
  // the pipeline into the write buffer, then push bytes.
  while (!conn.pending.empty() && conn.pending.front()->ready) {
    const Slot& slot = *conn.pending.front();
    if (conn.stream && !slot.failure.empty()) {
      ++stream_failures_;
      stream_log_("noodled: " + slot.failure + "\n");
    }
    const std::string& text = slot.text;
    conn.wbuf += text;
    metrics_.wbuf_bytes.add(static_cast<std::int64_t>(text.size()));
    metrics_.responses.inc();
    conn.pending.pop_front();
  }
  if (!write_some(conn)) return;

  if (finished(conn)) {
    close_connection(conn.id, /*server_initiated=*/false);
    return;
  }
  check_drained();
}

bool ScanServer::finished(const Connection& conn) const noexcept {
  return conn.buffered_bytes() == 0 && conn.pending.empty() && !conn.held &&
         (conn.half_closed || draining_);
}

bool ScanServer::write_some(Connection& conn) {
  const std::uint64_t id = conn.id;
  bool progressed = false;
  while (conn.wbuf_off < conn.wbuf.size()) {
    const ssize_t n = checked_write(conn.out_fd, conn.wbuf.data() + conn.wbuf_off,
                                    conn.wbuf.size() - conn.wbuf_off, !conn.stream);
    if (n > 0) {
      conn.wbuf_off += static_cast<std::size_t>(n);
      progressed = true;
      metrics_.bytes_tx.inc(static_cast<std::uint64_t>(n));
      metrics_.wbuf_bytes.sub(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.stream) break;
      // The stream's writes block; an out_fd that came non-blocking waits
      // here as a blocking write would.
      struct pollfd writable = {conn.out_fd, POLLOUT, 0};
      ::poll(&writable, 1, -1);
      continue;
    }
    // ECONNRESET/EPIPE/...: the client is gone mid-response. The torn
    // bytes never reached anyone — and a fresh connection re-requesting
    // gets a bit-identical verdict from the cache, so nothing is lost.
    close_connection(id, /*server_initiated=*/true);
    return false;
  }

  if (conn.wbuf_off == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.wbuf_off = 0;
    if (conn.stall_timer != 0) {
      loop_.cancel_timer(conn.stall_timer);
      conn.stall_timer = 0;
    }
    const bool was_blocked = conn.want_write || conn.paused;
    conn.want_write = false;
    conn.paused = false;
    if (was_blocked) update_interest(conn);
    return true;
  }

  // Bytes remain: the client is not draining fast enough.
  if (conn.wbuf_off > kCompactThreshold) {
    conn.wbuf.erase(0, conn.wbuf_off);
    conn.wbuf_off = 0;
  }
  if (conn.buffered_bytes() > kWbufHardLimit) {
    // Past the hard cap the client is not slow, it is absent (or
    // malicious). Its buffered bytes are the only per-connection memory
    // not otherwise bounded — reclaim them.
    close_connection(id, /*server_initiated=*/true);
    return false;
  }
  bool interest_changed = false;
  if (!conn.want_write) {
    conn.want_write = true;
    interest_changed = true;
  }
  if (!conn.paused && conn.buffered_bytes() > kWbufSoftLimit) {
    // Backpressure: stop READING this connection. Its pipelined requests
    // stay in the kernel buffer and eventually throttle the sender; other
    // connections are untouched.
    conn.paused = true;
    interest_changed = true;
  }
  if (interest_changed) update_interest(conn);
  if (progressed || conn.stall_timer == 0) arm_stall_timer(conn);
  return true;
}

void ScanServer::update_interest(Connection& conn) {
  const bool reading = !conn.paused && !conn.half_closed && !conn.held;
  if (conn.stream) {
    // Its writes block, and its input is switched by registration: a pipe
    // whose writer closed reports EPOLLHUP whatever the mask says.
    if (reading == conn.reading) return;
    if (reading) {
      loop_.add(conn.in_fd, EPOLLIN,
                [this, id = conn.id](std::uint32_t events) { on_io(id, events); });
    } else {
      loop_.remove(conn.in_fd);
    }
    conn.reading = reading;
    return;
  }
  std::uint32_t events = 0;
  if (reading) events |= EPOLLIN;
  if (conn.want_write) events |= EPOLLOUT;
  loop_.modify(conn.fd.get(), events);
}

void ScanServer::arm_idle_timer(Connection& conn, std::chrono::milliseconds delay) {
  const std::uint64_t id = conn.id;
  conn.idle_timer = loop_.add_timer(delay, [this, id] { idle_timer_fired(id); });
}

void ScanServer::idle_timer_fired(std::uint64_t id) {
  Connection* conn = find(id);
  if (conn == nullptr) return;
  conn->idle_timer = 0;
  // Reads only stamp last_read; the one timer re-arms for what is left of
  // the period since the last read. Re-arming on every read would add and
  // cancel a timer per read.
  const auto idle_for = std::chrono::steady_clock::now() - conn->last_read;
  if (idle_for < config_.idle_timeout) {
    arm_idle_timer(*conn, std::chrono::ceil<std::chrono::milliseconds>(
                              config_.idle_timeout - idle_for));
  } else if (conn->pending.empty() && conn->buffered_bytes() == 0) {
    close_connection(id, /*server_initiated=*/true);
  } else {
    // Busy waiting on verdicts is not idle; give it another period.
    arm_idle_timer(*conn, config_.idle_timeout);
  }
}

void ScanServer::arm_stall_timer(Connection& conn) {
  if (config_.write_stall_timeout.count() <= 0) return;
  if (conn.stall_timer != 0) loop_.cancel_timer(conn.stall_timer);
  const std::uint64_t id = conn.id;
  conn.stall_timer = loop_.add_timer(config_.write_stall_timeout, [this, id] {
    Connection* stalled = find(id);
    if (stalled == nullptr) return;
    stalled->stall_timer = 0;
    if (stalled->buffered_bytes() > 0) {
      // A full period with buffered bytes and no drain progress (progress
      // re-arms the timer): the classic slow-client attack. Evict.
      close_connection(id, /*server_initiated=*/true);
    }
  });
}

void ScanServer::close_connection(std::uint64_t id, bool server_initiated) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (conn.idle_timer != 0) loop_.cancel_timer(conn.idle_timer);
  if (conn.stall_timer != 0) loop_.cancel_timer(conn.stall_timer);
  for (const std::shared_ptr<Slot>& slot : conn.pending) {
    // Settle in-flight accounting now; the late service completion finds
    // completed == true and drops its orphaned verdict.
    if (!slot->completed) settle_slot(*slot);
  }
  if (!conn.stream || conn.reading) loop_.remove(conn.in_fd);
  metrics_.wbuf_bytes.sub(static_cast<std::int64_t>(conn.buffered_bytes()));
  const bool stream = conn.stream;
  connections_.erase(it);
  metrics_.connections.sub(1);
  if (server_initiated) metrics_.dropped.inc();
  if (stream) {
    // A stream cut short left lines unanswered; its end ends the server.
    if (server_initiated) ++stream_failures_;
    begin_drain();
  }
  check_drained();
}

void ScanServer::begin_drain() {
  if (draining_) return;
  draining_ = true;
  if (listener_) {
    loop_.remove(listener_.get());
    listener_.reset();  // new connects get RST/refused, not a silent hang
  }
  // Flush every connection; those with nothing outstanding close here, the
  // rest close when their last response flushes (see flush_connection).
  // The stream reads no further, as at EOF, but answers what it has read.
  std::vector<std::uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    Connection* conn = find(id);
    if (conn == nullptr) continue;
    if (conn->stream) {
      conn->half_closed = true;
      update_interest(*conn);
    }
    flush_connection(*conn);
  }
  if (config_.drain_grace.count() > 0 && !connections_.empty()) {
    drain_grace_timer_ = loop_.add_timer(config_.drain_grace, [this] {
      drain_grace_timer_ = 0;
      // Laggards had their chance; every slot they still hold is settled
      // by close_connection, so drain always terminates.
      std::vector<std::uint64_t> rest;
      rest.reserve(connections_.size());
      for (const auto& [id, conn] : connections_) rest.push_back(id);
      for (const std::uint64_t id : rest) {
        close_connection(id, /*server_initiated=*/true);
      }
    });
  }
  check_drained();
}

void ScanServer::check_drained() {
  if (!draining_ || drained_notified_ || !connections_.empty()) return;
  drained_notified_ = true;
  if (drain_grace_timer_ != 0) {
    loop_.cancel_timer(drain_grace_timer_);
    drain_grace_timer_ = 0;
  }
  if (on_drained_) loop_.post(on_drained_);
}

ServerStats ScanServer::stats() const {
  return {metrics_.accepted.value(),
          metrics_.dropped.value(),
          metrics_.requests.value(),
          metrics_.responses.value(),
          metrics_.shed.value(),
          metrics_.timeouts.value(),
          metrics_.protocol_errors.value(),
          metrics_.bytes_rx.value(),
          metrics_.bytes_tx.value(),
          static_cast<std::uint64_t>(metrics_.connections.value()),
          static_cast<std::uint64_t>(metrics_.inflight.value())};
}

}  // namespace noodle::net
