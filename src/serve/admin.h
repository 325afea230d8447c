// Admin / introspection plane (DESIGN.md §5h): a tiny HTTP/1.0 listener
// that exposes the process's observability state to curl and scrapers,
// off the serving port so operational traffic never competes with query
// frames. One thread, serial request handling — every endpoint is a
// read-only snapshot and renders in microseconds, so concurrency would
// buy nothing and cost locking.
//
//   GET /healthz  liveness: "ok" while the process runs
//   GET /readyz   readiness: 200 "ready" until drain starts, then 503
//   GET /metrics  Prometheus text exposition (MetricsToPrometheusText)
//   GET /varz     JSON: full registry dump + a server-provided section
//   GET /slowz    JSON dump of the slow/degraded query ring
//   GET /shardz   JSON status of every worker shard (health, model
//                 version, probe/quarantine counters); 404 without shards
//   POST /swapz   zero-downtime model hot-swap across all shards; 200 on
//                 success, 500 with the error otherwise, 405 on GET
//   GET  /adaptz  JSON history of continual fine-tune rounds; 404 when
//                 the process runs without an adaptation loop
//   POST /adaptz  runs one adaptation round synchronously (fine-tune on
//                 the incident window, re-seal, hot-swap on improvement)
//                 and returns the round's JSON record
//   GET /tracez?sec=N  records a bounded N-second trace (N capped at 10)
//                 and returns it as chrome://tracing JSON (409 if a
//                 recording is active)
//
// The port comes from AdminConfig (dot_server's --admin-port); port 0
// binds an ephemeral port, readable from AdminServer::port() after Start().

#ifndef DOT_SERVE_ADMIN_H_
#define DOT_SERVE_ADMIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/ring.h"
#include "util/result.h"

namespace dot {
namespace serve {

struct AdminConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral
};

/// \brief Callbacks the admin plane renders live state through. All must
/// be safe to call from the admin thread at any time between Start() and
/// Shutdown().
struct AdminHooks {
  /// Extra JSON object rendered under "server" in /varz (null if absent).
  std::function<std::string()> server_json;
  /// Slow-query ring behind /slowz (empty dump if absent).
  obs::SlowQueryRing* slow_ring = nullptr;
  /// Shard status JSON behind /shardz (404 if absent — the process runs
  /// unsharded).
  std::function<std::string()> shardz_json;
  /// Hot-swap trigger behind POST /swapz. Runs on the admin thread; the
  /// swap is expected to block until the shadow models are live (the 200
  /// means "the new version is serving"). 404 if absent.
  std::function<Status()> swap;
  /// Adaptation round history behind GET /adaptz (404 if absent — the
  /// process runs without a continual-learning loop).
  std::function<std::string()> adapt_json;
  /// One synchronous continual fine-tune round behind POST /adaptz.
  /// Returns the round's JSON record; blocks until the round (and any
  /// publish hot-swap it triggers) finishes. 404 if absent.
  std::function<Result<std::string>()> adapt_run;
};

/// \brief Single-threaded HTTP/1.0 introspection server.
class AdminServer {
 public:
  explicit AdminServer(AdminConfig config = {}, AdminHooks hooks = {});
  ~AdminServer();  // implies Shutdown()

  Status Start();
  /// Stops the listener thread and closes the socket. Idempotent.
  void Shutdown();

  /// The bound port (resolved after Start() when config.port was 0).
  int port() const { return port_; }

  /// Flips what /readyz reports; the server flips this false when a drain
  /// begins so load balancers stop routing before connections die.
  void SetReady(bool ready) {
    ready_.store(ready, std::memory_order_relaxed);
  }
  bool ready() const { return ready_.load(std::memory_order_relaxed); }

 private:
  void Loop();
  void HandleConn(int fd);
  /// Routes one request line; returns the full HTTP response bytes.
  std::string Respond(const std::string& method, const std::string& target);

  AdminConfig config_;
  AdminHooks hooks_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> ready_{true};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread thread_;
};

}  // namespace serve
}  // namespace dot

#endif  // DOT_SERVE_ADMIN_H_
