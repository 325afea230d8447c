#include "serve/admin.h"

#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/logging.h"

namespace dot {
namespace serve {
namespace {

// A request line longer than this is hostile; the connection is dropped.
constexpr size_t kMaxRequestBytes = 4096;
// Per-connection socket read timeout: a peer that connects and stalls
// cannot wedge the (single) admin thread for longer than this.
constexpr int kConnTimeoutMs = 2000;
// Hard cap on a /tracez capture's length.
constexpr double kMaxTraceSec = 10.0;
constexpr int kListenBacklog = 16;

std::string HttpResponse(int code, const char* reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string TextResponse(int code, const char* reason,
                         const std::string& body) {
  return HttpResponse(code, reason, "text/plain; charset=utf-8", body);
}

std::string JsonResponse(const std::string& body) {
  return HttpResponse(200, "OK", "application/json", body);
}

}  // namespace

AdminServer::AdminServer(AdminConfig config, AdminHooks hooks)
    : config_(std::move(config)), hooks_(std::move(hooks)) {}

AdminServer::~AdminServer() { Shutdown(); }

Status AdminServer::Start() {
  DOT_CHECK(!started_) << "Start() called twice";
  DOT_ASSIGN_OR_RETURN(Listener listener,
                       ListenTcp(config_.host, config_.port, kListenBacklog));
  listen_fd_ = listener.fd;
  port_ = listener.port;
  if (::pipe(wake_pipe_) < 0) {
    Status s = Status::IOError(std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void AdminServer::Shutdown() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  char b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  started_ = false;
}

void AdminServer::Loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, 500);
    if (rc <= 0) continue;
    if (fds[1].revents != 0) continue;  // woken for shutdown; loop re-checks
    if (fds[0].revents == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    timeval tv{};
    tv.tv_sec = kConnTimeoutMs / 1000;
    tv.tv_usec = (kConnTimeoutMs % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    HandleConn(fd);
    ::close(fd);
  }
}

void AdminServer::HandleConn(int fd) {
  // Read until the end of the headers (we ignore everything after the
  // request line) or the cap / timeout hits.
  std::string req;
  char buf[1024];
  while (req.find("\r\n") == std::string::npos &&
         req.size() < kMaxRequestBytes) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // timeout, error, or EOF before a full request line
    }
    req.append(buf, static_cast<size_t>(n));
  }
  size_t eol = req.find("\r\n");
  if (eol == std::string::npos) return;
  std::string line = req.substr(0, eol);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    std::string bad = TextResponse(400, "Bad Request", "bad request line\n");
    [[maybe_unused]] ssize_t n = ::send(fd, bad.data(), bad.size(), MSG_NOSIGNAL);
    return;
  }
  std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string resp = Respond(method, target);
  size_t off = 0;
  while (off < resp.size()) {
    ssize_t n =
        ::send(fd, resp.data() + off, resp.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

std::string AdminServer::Respond(const std::string& method,
                                 const std::string& target) {
  if (method != "GET" && method != "POST") {
    return TextResponse(405, "Method Not Allowed",
                        "only GET and POST are supported\n");
  }
  std::string path = target;
  std::string query;
  size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    path = target.substr(0, qpos);
    query = target.substr(qpos + 1);
  }
  // /swapz is the one mutating endpoint, hence the one POST target —
  // scrapers and curious GETs must not trigger a model swap.
  if (path == "/swapz") {
    if (!hooks_.swap) {
      return TextResponse(404, "Not Found", "no shards to swap\n");
    }
    if (method != "POST") {
      return TextResponse(405, "Method Not Allowed", "swap requires POST\n");
    }
    Status s = hooks_.swap();
    if (!s.ok()) {
      return TextResponse(500, "Internal Server Error", s.ToString() + "\n");
    }
    return TextResponse(200, "OK", "swap ok\n");
  }
  // /adaptz: GET = round history, POST = run one continual fine-tune
  // round (fine-tune on the incident window, re-seal, hot-swap).
  if (path == "/adaptz") {
    if (method == "POST") {
      if (!hooks_.adapt_run) {
        return TextResponse(404, "Not Found", "no adaptation loop\n");
      }
      Result<std::string> round = hooks_.adapt_run();
      if (!round.ok()) {
        return TextResponse(500, "Internal Server Error",
                            round.status().ToString() + "\n");
      }
      return JsonResponse(*round);
    }
    if (!hooks_.adapt_json) {
      return TextResponse(404, "Not Found", "no adaptation loop\n");
    }
    return JsonResponse(hooks_.adapt_json());
  }
  if (method != "GET") {
    return TextResponse(405, "Method Not Allowed", "only GET is supported\n");
  }
  if (path == "/shardz") {
    if (!hooks_.shardz_json) {
      return TextResponse(404, "Not Found", "no shards\n");
    }
    return JsonResponse(hooks_.shardz_json());
  }
  if (path == "/healthz") {
    return TextResponse(200, "OK", "ok\n");
  }
  if (path == "/readyz") {
    return ready() ? TextResponse(200, "OK", "ready\n")
                   : TextResponse(503, "Service Unavailable", "draining\n");
  }
  if (path == "/metrics") {
    return HttpResponse(200, "OK", "text/plain; version=0.0.4",
                        obs::MetricsToPrometheusText());
  }
  if (path == "/varz") {
    std::string server_section =
        hooks_.server_json ? hooks_.server_json() : "null";
    return JsonResponse("{\"metrics\": " + obs::MetricsToJson() +
                        ", \"server\": " + server_section + "}");
  }
  if (path == "/slowz") {
    if (hooks_.slow_ring == nullptr) {
      return JsonResponse("{\"capacity\": 0, \"total\": 0, \"records\": []}");
    }
    return JsonResponse(hooks_.slow_ring->ToJson());
  }
  if (path == "/tracez") {
    double sec = 1.0;
    if (!query.empty()) {
      if (query.rfind("sec=", 0) != 0) {
        return TextResponse(400, "Bad Request", "usage: /tracez?sec=N\n");
      }
      char* end = nullptr;
      sec = std::strtod(query.c_str() + 4, &end);
      if (!end || *end != '\0' || !(sec >= 0)) {
        return TextResponse(400, "Bad Request", "bad sec value\n");
      }
    }
    if (sec > kMaxTraceSec) sec = kMaxTraceSec;
    if (obs::TracingEnabled()) {
      // A DOT_TRACE recording (or a concurrent /tracez) owns the buffer;
      // stealing it would truncate that capture.
      return TextResponse(409, "Conflict",
                          "a trace recording is already active\n");
    }
    obs::StartTracing();  // in-memory only
    double waited = 0;
    while (waited < sec && !stopping_.load(std::memory_order_relaxed)) {
      double chunk = std::min(0.1, sec - waited);
      std::this_thread::sleep_for(std::chrono::duration<double>(chunk));
      waited += chunk;
    }
    std::vector<obs::TraceEvent> events = obs::StopTracing();
    return JsonResponse(obs::ToChromeJson(events));
  }
  return TextResponse(404, "Not Found", "no such endpoint\n");
}

}  // namespace serve
}  // namespace dot
