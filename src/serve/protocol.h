// Wire protocol of the DOT serving front-end (DESIGN.md §5g).
//
// Frames are length-prefixed: a 4-byte little-endian payload length
// followed by the payload. The first payload byte is the message type,
// the rest fixed-width little-endian fields (floats as IEEE-754 bit
// patterns), so the encoding is unambiguous across hosts and trivially
// fuzzable. Four message types, one layout each:
//
//   kQueryRequest   id, OdtInput fields, client deadline_ms, 64-bit
//                   trace_id, flags byte (kQueryFlagSampled,
//                   kQueryFlagWantBreakdown) — 66 bytes
//   kQueryResponse  id, Status code, ServedQuality, flags byte (bit 0:
//                   has_breakdown), minutes, the four timing-breakdown
//                   fields, u16-length error message — 54 bytes + message
//   kPing / kPong   id (liveness probe; the server echoes the id)
//
// Decoding is strict — unknown type, wrong payload size, or an error
// message overrunning the payload are InvalidArgument, never UB — and
// FrameReader enforces a maximum frame size so a hostile length prefix
// cannot balloon memory. Torn writes (a peer dying mid-frame) leave an
// incomplete buffer that simply never yields a frame.

#ifndef DOT_SERVE_PROTOCOL_H_
#define DOT_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/result.h"

namespace dot {
namespace serve {

/// Hard cap on a frame payload; a length prefix above this is a protocol
/// error (the connection is dropped, no allocation happens).
constexpr uint32_t kMaxFramePayload = 4096;
/// Error messages are truncated to this many bytes on the wire.
constexpr size_t kMaxErrorMessage = 512;

enum class MsgType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kPing = 3,
  kPong = 4,
};

/// Request flag bits (QueryRequest::flags).
/// The request's spans are recorded into the active trace recording.
constexpr uint8_t kQueryFlagSampled = 0x1;
/// Echo the per-request timing breakdown in the response.
constexpr uint8_t kQueryFlagWantBreakdown = 0x2;

/// \brief Server-side latency segments of one request, echoed in the
/// response when the request set kQueryFlagWantBreakdown. The response
/// cannot carry its own encode time; the server reports that in the
/// dot_server_breakdown_serialize_us window and /slowz.
struct TimingBreakdown {
  double queue_us = 0;       ///< batcher queue wait before wave formation
  double batch_wait_us = 0;  ///< wave wall time outside stage 1/2
  double stage1_us = 0;      ///< diffusion miss-serve (0 on a cache hit)
  double stage2_us = 0;      ///< batched travel-time estimator
};

/// \brief A travel-time query (OdtInput fields + serving options).
struct QueryRequest {
  uint64_t id = 0;  ///< client-chosen correlation id, echoed in the response
  double origin_lng = 0, origin_lat = 0;
  double dest_lng = 0, dest_lat = 0;
  int64_t departure_time = 0;  ///< Unix seconds
  /// Client latency budget from the moment the server dequeues the frame
  /// (0 = none). Propagated into QueryOptions as the wave's earliest
  /// deadline, so the degradation ladder honors it.
  double deadline_ms = 0;
  /// Client-generated trace context (0 = untraced).
  uint64_t trace_id = 0;
  uint8_t flags = 0;  ///< kQueryFlagSampled | kQueryFlagWantBreakdown
};

/// \brief The oracle's answer (or a typed error).
struct QueryResponse {
  uint64_t id = 0;
  uint8_t code = 0;     ///< StatusCode as integer; 0 = OK
  uint8_t quality = 0;  ///< ServedQuality as integer (valid when code == 0)
  double minutes = 0;
  std::string message;  ///< error detail (empty when code == 0)
  /// Set when the request asked for (and the server produced) a timing
  /// breakdown; `breakdown` is meaningful only then.
  bool has_breakdown = false;
  TimingBreakdown breakdown;
};

struct Ping {
  uint64_t id = 0;
};
struct Pong {
  uint64_t id = 0;
};

using Message = std::variant<QueryRequest, QueryResponse, Ping, Pong>;

/// Serializes a message payload (no frame header).
std::vector<uint8_t> EncodePayload(const Message& msg);
/// Parses one complete payload. Strict: any size/type mismatch is
/// InvalidArgument.
Result<Message> DecodePayload(const std::vector<uint8_t>& payload);

/// Serializes a full frame: 4-byte LE payload length + payload.
std::vector<uint8_t> EncodeFrame(const Message& msg);

/// \brief Incremental frame parser over a byte stream.
///
/// Feed() appends raw bytes (in any fragmentation — single bytes, half
/// frames, many frames at once); Next() pops complete payloads in order.
/// A length prefix above kMaxFramePayload poisons the reader (sticky
/// error): the connection should be closed.
class FrameReader {
 public:
  /// Appends stream bytes. Returns the sticky error state.
  Status Feed(const uint8_t* data, size_t n);
  /// Pops the next complete payload into `*payload`. False when no
  /// complete frame is buffered (or the reader is poisoned).
  bool Next(std::vector<uint8_t>* payload);

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buf_.size() - pos_; }
  const Status& status() const { return status_; }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  Status status_;
};

/// Writes one full frame to `fd`, handling short writes. Honors the
/// `serve.write_frame` failpoint: kTruncate sends only half the frame and
/// reports success (torn-write simulation; the peer must cope), kError
/// fails without writing.
Status WriteFrame(int fd, const Message& msg);

/// A bound, listening TCP socket. The caller owns `fd`.
struct Listener {
  int fd = -1;
  int port = 0;  ///< the bound port (resolves a requested port 0)
};

/// Opens a blocking TCP socket with SO_REUSEADDR, binds it to
/// `host`:`port` (port 0 = an ephemeral port) and listens with `backlog`.
/// On error nothing is left open. The server and the admin plane both
/// listen through this.
Result<Listener> ListenTcp(const std::string& host, int port, int backlog);

}  // namespace serve
}  // namespace dot

#endif  // DOT_SERVE_PROTOCOL_H_
