// Socket serving front-end (DESIGN.md §5g): a poll()-based TCP server
// that speaks the length-prefixed binary protocol of serve/protocol.h and
// feeds every query through the deadline-aware DynamicBatcher into a
// batched oracle backend.
//
// Threading model: one IO thread owns every socket (accept, read, write —
// no per-connection threads, connections scale with fd limits, not
// threads); the batcher's worker thread runs the backend and hands
// finished responses back through a self-pipe that wakes the poll loop.
// Overload rejections and pings are answered inline on the IO thread.
//
// Shutdown() drains gracefully: stop accepting, let the batcher answer
// everything queued, flush every connection's outbox, then close.

#ifndef DOT_SERVE_SERVER_H_
#define DOT_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/ring.h"
#include "serve/batcher.h"
#include "serve/protocol.h"

namespace dot {
namespace serve {

struct ServerConfig {
  /// Listen address. Port 0 binds an ephemeral port (see Server::port()).
  std::string host = "127.0.0.1";
  int port = 0;
  /// Batcher policy (wave formation + admission control).
  BatcherConfig batcher;
};

/// \brief Point-in-time server counters (IO-thread state).
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_open = 0;
  int64_t requests = 0;           ///< query frames decoded
  int64_t responses = 0;          ///< query responses written out
  int64_t overload_rejected = 0;  ///< answered with kResourceExhausted
  int64_t protocol_errors = 0;    ///< malformed frames / unexpected types
  int64_t pings = 0;
};

/// \brief TCP front-end over a batched oracle backend.
class Server {
 public:
  /// `backend` is RouterBackend(router) in dot_server; any BatchBackend
  /// works (the stress tests serve synthetic answers without a model).
  Server(BatchBackend backend, ServerConfig config = {});
  ~Server();  // implies Shutdown()

  /// Binds, listens, and starts the IO + batcher threads. Fails with
  /// IOError if the address cannot be bound.
  Status Start();

  /// Graceful drain: stop accepting, answer everything admitted, flush all
  /// outboxes, close every socket, stop the threads. Idempotent.
  void Shutdown();

  /// The bound port (resolved after Start() when config.port was 0).
  int port() const { return port_; }
  ServerStats stats() const;
  const BatcherStats batcher_stats() const { return batcher_->stats(); }

  /// Recent slow / degraded / failed requests (drives the /slowz endpoint).
  obs::SlowQueryRing* slow_ring() { return &slow_ring_; }

 private:
  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::vector<uint8_t> outbox;  // unsent bytes (appended under out_mu_)
    size_t sent = 0;              // prefix of outbox already written
  };

  void IoLoop();
  /// Accepts until EAGAIN. IO thread only.
  void AcceptReady();
  /// Drains readable bytes and dispatches complete frames. Returns false
  /// when the connection must be closed. IO thread only.
  bool ReadReady(int64_t conn_id, Conn* conn);
  /// Writes buffered outbox bytes until EAGAIN. False = close. IO thread.
  bool WriteReady(Conn* conn);
  void CloseConn(int64_t conn_id);
  /// Appends an encoded frame to a connection's outbox and wakes the poll
  /// loop. Safe from any thread; drops silently if the connection died.
  void QueueResponse(int64_t conn_id, const Message& msg);
  void WakeIo();

  BatchBackend backend_;
  ServerConfig config_;

  struct Metrics {
    Metrics();
    obs::Counter* connections;      // dot_server_connections_total
    obs::Counter* requests;         // dot_server_requests_total
    obs::Counter* responses;        // dot_server_responses_total
    obs::Counter* protocol_errors;  // dot_server_protocol_errors_total
    obs::Counter* pings;            // dot_server_pings_total
    obs::Gauge* open_connections;   // dot_server_open_connections
    obs::Gauge* inflight;           // dot_server_inflight (admitted, unanswered)
    obs::Histogram* request_latency_us;  // dot_server_request_latency_us
    // Rolling 60s windows: live SLO percentiles for /varz and /metrics.
    obs::RollingHistogram* win_request_latency;
    obs::RollingHistogram* win_queue;
    obs::RollingHistogram* win_batch_wait;
    obs::RollingHistogram* win_stage1;
    obs::RollingHistogram* win_stage2;
    obs::RollingHistogram* win_serialize;
  };
  Metrics metrics_;
  obs::SlowQueryRing slow_ring_{256};

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::unique_ptr<DynamicBatcher> batcher_;
  std::thread io_thread_;

  // Connection table and outboxes are shared between the IO thread and the
  // batcher callback; one mutex guards both plus the stats.
  mutable std::mutex mu_;
  std::map<int64_t, Conn> conns_;
  int64_t next_conn_id_ = 1;
  ServerStats stats_;
  bool stopping_ = false;    // stop accepting; drain
  bool drain_done_ = false;  // batcher fully drained; flush outboxes + exit
  bool started_ = false;
  bool shut_down_ = false;   // teardown finished; Shutdown is a no-op now
  // Serializes the whole teardown (join + fd close): concurrent Shutdown
  // callers queue here instead of racing WakeIo against the pipe close.
  std::mutex shutdown_mu_;
};

}  // namespace serve
}  // namespace dot

#endif  // DOT_SERVE_SERVER_H_
