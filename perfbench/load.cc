#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <ctime>
#include <memory>
#include <random>
#include <unordered_map>
#include <variant>

#include "serve/client.h"

namespace dot::perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// A blocking loopback socket whose reads are drained without blocking
/// after poll() reports it readable.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool Send(const serve::QueryRequest& q) {
    return serve::WriteFrame(fd_, serve::Message(q)).ok();
  }

  /// Reads what is buffered and appends every complete response. False
  /// when the peer closed or the stream is corrupt.
  bool Drain(std::vector<serve::QueryResponse>* out) {
    uint8_t buf[16384];
    while (true) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        if (!reader_.Feed(buf, static_cast<size_t>(n)).ok()) return false;
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    std::vector<uint8_t> payload;
    while (reader_.Next(&payload)) {
      Result<serve::Message> msg = serve::DecodePayload(payload);
      if (!msg.ok()) return false;
      if (const auto* r = std::get_if<serve::QueryResponse>(&*msg)) {
        out->push_back(*r);
      }
    }
    return true;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  serve::FrameReader reader_;
};

/// Waits up to `timeout_ms` (sub-millisecond precision) for any readable
/// connection.
void Wait(std::vector<pollfd>* fds, double timeout_ms) {
  timeout_ms = std::max(0.0, timeout_ms);
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_ms / 1e3);
  ts.tv_nsec = static_cast<long>(std::fmod(timeout_ms, 1e3) * 1e6);
  for (auto& p : *fds) p.revents = 0;
  ::ppoll(fds->data(), fds->size(), &ts, nullptr);
}

}  // namespace

PhaseLog RunPhase(int port, const LoadSpec& spec, const QuerySource& next,
                  uint64_t first_id) {
  PhaseLog log;
  const int nconn = std::max(1, spec.connections);
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<pollfd> fds;
  for (int c = 0; c < nconn; ++c) {
    auto conn = std::make_unique<Conn>();
    if (!conn->Connect(port)) {
      ++log.transport_errors;
      return log;
    }
    fds.push_back(pollfd{conn->fd(), POLLIN, 0});
    conns.push_back(std::move(conn));
  }
  std::vector<bool> alive(nconn, true);

  // Open-loop schedule: exponential gaps from the schedule seed.
  std::mt19937_64 rng(spec.schedule_seed);
  std::exponential_distribution<double> gap_s(spec.rate_qps > 0 ? spec.rate_qps
                                                                 : 1.0);
  const bool open = spec.rate_qps > 0;

  std::unordered_map<uint64_t, size_t> pending;  // id -> outcome index
  uint64_t next_id = first_id;
  log.start_ms = NowMs();
  log.end_ms = log.start_ms + spec.seconds * 1e3;
  double next_due = log.start_ms;

  auto send = [&](int c, double due_ms) {
    Query q = next();
    serve::QueryRequest req;
    req.id = next_id++;
    req.origin_lng = q.odt.origin.lng;
    req.origin_lat = q.odt.origin.lat;
    req.dest_lng = q.odt.destination.lng;
    req.dest_lat = q.odt.destination.lat;
    req.departure_time = q.odt.departure_time;
    req.deadline_ms = spec.deadline_ms;
    req.flags = spec.flags;
    if (spec.flags != 0) req.trace_id = serve::Client::NewTraceId();
    Outcome o;
    o.trip = q.trip;
    o.due_ms = due_ms;
    o.sent_ms = NowMs();
    if (!alive[c] || !conns[c]->Send(req)) {
      alive[c] = false;
      ++log.transport_errors;
      log.outcomes.push_back(o);  // attempted, never answered
      return;
    }
    pending.emplace(req.id, log.outcomes.size());
    log.outcomes.push_back(o);
  };
  auto sending = [&](double now) {
    if (now >= log.end_ms) return false;
    return spec.max_requests <= 0 ||
           static_cast<int64_t>(log.outcomes.size()) < spec.max_requests;
  };

  if (!open) {
    for (int c = 0; c < nconn; ++c) {
      for (int k = 0; k < spec.outstanding_per_conn; ++k) {
        if (sending(NowMs())) send(c, NowMs());
      }
    }
  }

  std::vector<serve::QueryResponse> got;
  double drain_deadline = -1;
  while (true) {
    double now = NowMs();
    if (open) {
      // Send everything that is due; the due time, not the send time, is
      // the request's latency origin.
      while (next_due <= now && next_due < log.end_ms) {
        send(static_cast<int>((next_id - first_id) % nconn), next_due);
        next_due += gap_s(rng) * 1e3;
      }
    }
    bool still_sending = open ? next_due < log.end_ms : sending(now);
    if (!still_sending && pending.empty()) break;
    if (!still_sending) {
      if (drain_deadline < 0) drain_deadline = now + spec.drain_timeout_ms;
      if (now >= drain_deadline) break;
    }
    double wait_ms = 5.0;
    if (open && still_sending) wait_ms = std::min(wait_ms, next_due - now);
    Wait(&fds, wait_ms);
    double recv_ms = NowMs();
    for (int c = 0; c < nconn; ++c) {
      if (!alive[c] || fds[c].revents == 0) continue;
      got.clear();
      if (!conns[c]->Drain(&got)) {
        alive[c] = false;
        fds[c].fd = -1;  // poll ignores negative fds
        ++log.transport_errors;
      }
      for (const serve::QueryResponse& r : got) {
        auto it = pending.find(r.id);
        if (it == pending.end()) {
          if (r.id >= first_id && r.id < next_id) {
            ++log.duplicates;
          } else {
            ++log.unknown;
          }
          continue;
        }
        Outcome& o = log.outcomes[it->second];
        o.recv_ms = recv_ms;
        o.response = r;
        pending.erase(it);
        // Closed loop: the freed slot is due now.
        if (!open && sending(recv_ms)) send(c, recv_ms);
      }
    }
  }
  return log;
}

}  // namespace dot::perfbench
