// Blocking TCP client for the DOT serving protocol — the counterpart the
// load harness, the e2e smoke, and the stress tests talk through.
//
// The client supports pipelining: many Send()s may be in flight before the
// matching Receive()s. Responses carry the request id, and the server may
// reorder (inline overload rejections overtake batched answers), so
// ReceiveFor(id) parks out-of-order responses in a small stash until the
// caller asks for them.

#ifndef DOT_SERVE_CLIENT_H_
#define DOT_SERVE_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/dot_oracle.h"
#include "serve/protocol.h"

namespace dot {
namespace serve {

/// \brief Blocking protocol client over one TCP connection.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects (TCP_NODELAY, blocking socket). IOError on refusal.
  Status Connect(const std::string& host, int port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Writes one frame. The socket is blocking, so this returns once the
  /// kernel accepted the bytes.
  Status Send(const Message& msg);

  /// Sends a query request built from an OdtInput, with its trace context
  /// (`flags`: kQueryFlagSampled / kQueryFlagWantBreakdown). When flags
  /// are set and trace_id is 0 a fresh id from NewTraceId() is stamped
  /// automatically.
  Status SendQuery(uint64_t id, const OdtInput& odt, double deadline_ms = 0,
                   uint64_t trace_id = 0, uint8_t flags = 0);

  /// A process-unique nonzero 64-bit trace id (thread-local PRNG).
  static uint64_t NewTraceId();

  /// Blocks (up to timeout_ms; <=0 = forever) for the next inbound message,
  /// in arrival order. DeadlineExceeded on timeout, IOError when the server
  /// closed the connection.
  Result<Message> Receive(double timeout_ms = -1);

  /// Blocks for the QueryResponse matching `id`; other query responses
  /// arriving first are stashed and returned by their own ReceiveFor call.
  Result<QueryResponse> ReceiveFor(uint64_t id, double timeout_ms = -1);

  /// Round-trips one query (Send + ReceiveFor).
  Result<QueryResponse> Call(uint64_t id, const OdtInput& odt,
                             double deadline_ms = 0, double timeout_ms = -1,
                             uint64_t trace_id = 0, uint8_t flags = 0);

  /// Liveness probe: sends a ping and waits for the echoing pong.
  Status PingServer(uint64_t id, double timeout_ms = -1);

 private:
  int fd_ = -1;
  FrameReader reader_;
  std::map<uint64_t, QueryResponse> stash_;  // out-of-order query responses
};

}  // namespace serve
}  // namespace dot

#endif  // DOT_SERVE_CLIENT_H_
