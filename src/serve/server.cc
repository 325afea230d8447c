#include "serve/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/trace.h"
#include "obs/window.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dot {
namespace serve {
namespace {

// A connection whose peer stops reading cannot buffer responses forever;
// past this outbox size it is considered dead and closed.
constexpr size_t kMaxOutboxBytes = 1 << 20;
// How long Shutdown keeps flushing unsent outboxes before giving up.
constexpr double kDrainFlushGraceMs = 5000;
constexpr int kListenBacklog = 64;
// A request slower than this lands in the slow-query ring (/slowz) even
// when it was served at full quality.
constexpr double kSlowRequestMs = 100.0;

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

uint8_t CodeByte(const Status& s) { return static_cast<uint8_t>(s.code()); }

}  // namespace

Server::Metrics::Metrics() {
  auto& reg = obs::MetricsRegistry::Get();
  connections = reg.GetCounter("dot_server_connections_total");
  requests = reg.GetCounter("dot_server_requests_total");
  responses = reg.GetCounter("dot_server_responses_total");
  protocol_errors = reg.GetCounter("dot_server_protocol_errors_total");
  pings = reg.GetCounter("dot_server_pings_total");
  open_connections = reg.GetGauge("dot_server_open_connections");
  inflight = reg.GetGauge("dot_server_inflight");
  request_latency_us = reg.GetHistogram("dot_server_request_latency_us");
  win_request_latency = reg.GetWindow("dot_server_request_latency_us");
  win_queue = reg.GetWindow("dot_server_breakdown_queue_us");
  win_batch_wait = reg.GetWindow("dot_server_breakdown_batch_wait_us");
  win_stage1 = reg.GetWindow("dot_server_breakdown_stage1_us");
  win_stage2 = reg.GetWindow("dot_server_breakdown_stage2_us");
  win_serialize = reg.GetWindow("dot_server_breakdown_serialize_us");
}

Server::Server(BatchBackend backend, ServerConfig config)
    : backend_(std::move(backend)), config_(std::move(config)) {
  DOT_CHECK(backend_ != nullptr) << "server needs a backend";
  DOT_CHECK(!config_.batcher.manual_pump)
      << "the server drives the batcher with its own thread";
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  DOT_CHECK(!started_) << "Start() called twice";
  DOT_ASSIGN_OR_RETURN(Listener listener,
                       ListenTcp(config_.host, config_.port, kListenBacklog));
  listen_fd_ = listener.fd;
  port_ = listener.port;
  SetNonBlocking(listen_fd_);
  if (::pipe(wake_pipe_) < 0) {
    Status s = Status::IOError(std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  batcher_ = std::make_unique<DynamicBatcher>(backend_, config_.batcher);
  started_ = true;
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::OK();
}

void Server::WakeIo() {
  char b = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

void Server::QueueResponse(int64_t conn_id, const Message& msg) {
  std::vector<uint8_t> frame = EncodeFrame(msg);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // connection died while serving
    Conn& conn = it->second;
    conn.outbox.insert(conn.outbox.end(), frame.begin(), frame.end());
    if (std::holds_alternative<QueryResponse>(msg)) {
      ++stats_.responses;
      metrics_.responses->Increment();
    }
  }
  WakeIo();
}

void Server::AcceptReady() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: poll again later
    }
    SetNonBlocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    conns_.emplace(next_conn_id_++, std::move(conn));
    ++stats_.connections_accepted;
    ++stats_.connections_open;
    metrics_.connections->Increment();
    metrics_.open_connections->Set(
        static_cast<double>(stats_.connections_open));
  }
}

bool Server::ReadReady(int64_t conn_id, Conn* conn) {
  uint8_t buf[4096];
  bool alive = true;
  while (alive) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n == 0) {
      alive = false;  // peer closed; frames already buffered still count
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      alive = false;
      break;
    }
    if (!conn->reader.Feed(buf, static_cast<size_t>(n)).ok()) {
      ++stats_.protocol_errors;
      metrics_.protocol_errors->Increment();
      return false;  // oversized length prefix: drop the connection
    }
  }
  std::vector<uint8_t> payload;
  while (conn->reader.Next(&payload)) {
    Result<Message> decoded = DecodePayload(payload);
    if (!decoded.ok()) {
      ++stats_.protocol_errors;
      metrics_.protocol_errors->Increment();
      return false;
    }
    if (const auto* ping = std::get_if<Ping>(&*decoded)) {
      ++stats_.pings;
      metrics_.pings->Increment();
      std::vector<uint8_t> frame = EncodeFrame(Pong{ping->id});
      conn->outbox.insert(conn->outbox.end(), frame.begin(), frame.end());
      continue;
    }
    const auto* query = std::get_if<QueryRequest>(&*decoded);
    if (query == nullptr) {  // a client must not send responses/pongs
      ++stats_.protocol_errors;
      metrics_.protocol_errors->Increment();
      return false;
    }
    ++stats_.requests;
    metrics_.requests->Increment();
    OdtInput odt;
    odt.origin = {query->origin_lng, query->origin_lat};
    odt.destination = {query->dest_lng, query->dest_lat};
    odt.departure_time = query->departure_time;
    uint64_t id = query->id;
    uint64_t trace_id = query->trace_id;
    bool want_breakdown = (query->flags & kQueryFlagWantBreakdown) != 0;
    // A sampled request gets a root span in the active recording; every
    // downstream span (queue wait, wave, oracle stages) is stitched under
    // it. With tracing off this is one relaxed atomic load.
    uint64_t root_span = 0;
    int64_t root_start_us = 0;
    if ((query->flags & kQueryFlagSampled) && obs::TracingEnabled()) {
      root_span = obs::NewSpanId();
      root_start_us = obs::TraceNowUs();
    }
    // The callback runs on the batcher thread after the wave completes;
    // it must not assume the connection still exists. Inflight is raised
    // before Submit because the callback may fire before Submit returns.
    metrics_.inflight->Add(1.0);
    auto start = std::chrono::steady_clock::now();
    Status admitted = batcher_->Submit(
        odt, query->deadline_ms, root_span,
        [this, conn_id, id, trace_id, want_breakdown, root_span,
         root_start_us, start](const Result<DotEstimate>& r,
                               const TimingBreakdown& timing) {
          QueryResponse resp;
          resp.id = id;
          if (r.ok()) {
            resp.quality = static_cast<uint8_t>(r->quality);
            resp.minutes = r->minutes;
          } else {
            resp.code = CodeByte(r.status());
            resp.message = r.status().message();
          }
          if (want_breakdown) {
            resp.has_breakdown = true;
            resp.breakdown = timing;
          }
          double latency_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
          metrics_.request_latency_us->Observe(latency_us);
          metrics_.win_request_latency->Observe(latency_us);
          metrics_.win_queue->Observe(timing.queue_us);
          metrics_.win_batch_wait->Observe(timing.batch_wait_us);
          metrics_.win_stage1->Observe(timing.stage1_us);
          metrics_.win_stage2->Observe(timing.stage2_us);
          Stopwatch serialize_sw;
          QueueResponse(conn_id, resp);
          double serialize_us = serialize_sw.ElapsedSeconds() * 1e6;
          metrics_.win_serialize->Observe(serialize_us);
          metrics_.inflight->Add(-1.0);
          if (root_span != 0) {
            obs::RecordSpan("request", root_span, 0, root_start_us,
                            obs::TraceNowUs() - root_start_us,
                            "\"trace_id\": " + std::to_string(trace_id) +
                                ", \"id\": " + std::to_string(id));
          }
          bool degraded =
              r.ok() &&
              r->quality != ServedQuality::kFull;
          double latency_ms = latency_us / 1e3;
          if (!r.ok() || degraded || latency_ms > kSlowRequestMs) {
            obs::SlowQueryRecord rec;
            rec.trace_id = trace_id;
            rec.request_id = id;
            rec.unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::system_clock::now()
                                  .time_since_epoch())
                              .count();
            rec.latency_ms = latency_ms;
            rec.quality = r.ok() ? static_cast<int>(r->quality) : 0;
            rec.code = r.ok() ? 0 : static_cast<int>(CodeByte(r.status()));
            rec.queue_us = timing.queue_us;
            rec.batch_wait_us = timing.batch_wait_us;
            rec.stage1_us = timing.stage1_us;
            rec.stage2_us = timing.stage2_us;
            rec.serialize_us = serialize_us;
            rec.note = !r.ok() ? r.status().message()
                     : degraded ? ServedQualityName(r->quality)
                                : "slow";
            slow_ring_.Push(std::move(rec));
          }
        });
    if (!admitted.ok()) {
      metrics_.inflight->Add(-1.0);
      // Typed rejection (overload or draining), answered inline: shedding
      // must be cheap exactly when the server is busiest.
      if (admitted.IsResourceExhausted()) ++stats_.overload_rejected;
      QueryResponse resp;
      resp.id = id;
      resp.code = CodeByte(admitted);
      resp.message = admitted.message();
      std::vector<uint8_t> frame = EncodeFrame(resp);
      conn->outbox.insert(conn->outbox.end(), frame.begin(), frame.end());
      ++stats_.responses;
      metrics_.responses->Increment();
    }
  }
  if (conn->outbox.size() - conn->sent > kMaxOutboxBytes) return false;
  return alive;
}

bool Server::WriteReady(Conn* conn) {
  while (conn->sent < conn->outbox.size()) {
    ssize_t n = ::send(conn->fd, conn->outbox.data() + conn->sent,
                       conn->outbox.size() - conn->sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // EPIPE etc.
    }
    conn->sent += static_cast<size_t>(n);
  }
  conn->outbox.clear();
  conn->sent = 0;
  return true;
}

void Server::CloseConn(int64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  --stats_.connections_open;
  metrics_.open_connections->Set(static_cast<double>(stats_.connections_open));
}

void Server::IoLoop() {
  std::vector<pollfd> fds;
  std::vector<int64_t> ids;  // parallel to fds; 0 = listen/wake entries
  Stopwatch drain_sw;
  bool drain_timer_started = false;
  while (true) {
    fds.clear();
    ids.clear();
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping = stopping_;
      if (!stopping) {
        fds.push_back({listen_fd_, POLLIN, 0});
        ids.push_back(0);
      }
      fds.push_back({wake_pipe_[0], POLLIN, 0});
      ids.push_back(0);
      for (auto& [conn_id, conn] : conns_) {
        short events = POLLIN;
        if (conn.sent < conn.outbox.size()) events |= POLLOUT;
        fds.push_back({conn.fd, events, 0});
        ids.push_back(conn_id);
      }
    }
    ::poll(fds.data(), fds.size(), stopping ? 10 : 100);

    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == wake_pipe_[0]) {
        uint8_t scratch[256];
        while (::read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
        }
        continue;
      }
      if (fds[i].fd == listen_fd_ && ids[i] == 0) {
        if (!stopping_) AcceptReady();
        continue;
      }
      int64_t conn_id = ids[i];
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      Conn& conn = it->second;
      bool alive = !(fds[i].revents & (POLLERR | POLLNVAL));
      // Read before honoring POLLHUP: a peer that closed right after
      // sending still gets its final frames decoded (ReadReady reports the
      // EOF itself).
      if (alive && (fds[i].revents & (POLLIN | POLLHUP))) {
        alive = ReadReady(conn_id, &conn);
      }
      if (alive && conn.sent < conn.outbox.size()) alive = WriteReady(&conn);
      if (!alive) CloseConn(conn_id);
    }
    // Unsolicited flush: responses queued by the batcher thread while we
    // were polling are written eagerly rather than waiting one poll cycle.
    for (auto it = conns_.begin(); it != conns_.end();) {
      int64_t conn_id = it->first;
      Conn& conn = it->second;
      ++it;
      if (conn.sent < conn.outbox.size() && !WriteReady(&conn)) {
        CloseConn(conn_id);
      }
    }
    if (stopping_ && drain_done_) {
      if (!drain_timer_started) {
        drain_timer_started = true;
        drain_sw.Restart();
      }
      bool all_flushed = true;
      for (const auto& [conn_id, conn] : conns_) {
        if (conn.sent < conn.outbox.size()) {
          all_flushed = false;
          break;
        }
      }
      if (all_flushed || drain_sw.ElapsedMillis() > kDrainFlushGraceMs) break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [conn_id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  stats_.connections_open = 0;
  metrics_.open_connections->Set(0);
}

void Server::Shutdown() {
  // One caller performs the entire teardown; concurrent callers block here
  // and then observe started_ == false. Without this, a second caller's
  // WakeIo() could read wake_pipe_[1] while the first closes it.
  std::lock_guard<std::mutex> slock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || shut_down_) return;
    stopping_ = true;
  }
  WakeIo();
  batcher_->Shutdown();  // answers everything admitted; callbacks all done
  {
    std::lock_guard<std::mutex> lock(mu_);
    drain_done_ = true;
  }
  WakeIo();
  if (io_thread_.joinable()) io_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_pipe_[0] >= 0) {
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  shut_down_ = true;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace serve
}  // namespace dot
