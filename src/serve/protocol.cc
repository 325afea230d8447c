#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/failpoint.h"

namespace dot {
namespace serve {
namespace {

// Fixed payload sizes (type byte included). A query response additionally
// carries a u16-length error message after the fixed part.
constexpr size_t kQueryRequestSize = 1 + 8 * 7 + 8 + 1;
constexpr size_t kQueryResponseFixedSize = 1 + 8 + 1 + 1 + 1 + 8 + 8 * 4 + 2;
constexpr size_t kPingSize = 1 + 8;
// Response flag bits.
constexpr uint8_t kResponseFlagBreakdown = 0x1;

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

int64_t GetI64(const uint8_t* p) { return static_cast<int64_t>(GetU64(p)); }

double GetF64(const uint8_t* p) {
  uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::vector<uint8_t> EncodePayload(const Message& msg) {
  std::vector<uint8_t> out;
  if (const auto* q = std::get_if<QueryRequest>(&msg)) {
    out.reserve(kQueryRequestSize);
    out.push_back(static_cast<uint8_t>(MsgType::kQueryRequest));
    PutU64(&out, q->id);
    PutF64(&out, q->origin_lng);
    PutF64(&out, q->origin_lat);
    PutF64(&out, q->dest_lng);
    PutF64(&out, q->dest_lat);
    PutI64(&out, q->departure_time);
    PutF64(&out, q->deadline_ms);
    PutU64(&out, q->trace_id);
    out.push_back(q->flags);
  } else if (const auto* r = std::get_if<QueryResponse>(&msg)) {
    size_t msg_len = std::min(r->message.size(), kMaxErrorMessage);
    out.reserve(kQueryResponseFixedSize + msg_len);
    out.push_back(static_cast<uint8_t>(MsgType::kQueryResponse));
    PutU64(&out, r->id);
    out.push_back(r->code);
    out.push_back(r->quality);
    out.push_back(r->has_breakdown ? kResponseFlagBreakdown : 0);
    PutF64(&out, r->minutes);
    PutF64(&out, r->breakdown.queue_us);
    PutF64(&out, r->breakdown.batch_wait_us);
    PutF64(&out, r->breakdown.stage1_us);
    PutF64(&out, r->breakdown.stage2_us);
    PutU16(&out, static_cast<uint16_t>(msg_len));
    out.insert(out.end(), r->message.begin(), r->message.begin() + msg_len);
  } else if (const auto* ping = std::get_if<Ping>(&msg)) {
    out.reserve(kPingSize);
    out.push_back(static_cast<uint8_t>(MsgType::kPing));
    PutU64(&out, ping->id);
  } else {
    const Pong& pong = std::get<Pong>(msg);
    out.reserve(kPingSize);
    out.push_back(static_cast<uint8_t>(MsgType::kPong));
    PutU64(&out, pong.id);
  }
  return out;
}

Result<Message> DecodePayload(const std::vector<uint8_t>& payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("protocol: empty payload");
  }
  const uint8_t* p = payload.data();
  switch (static_cast<MsgType>(payload[0])) {
    case MsgType::kQueryRequest: {
      if (payload.size() != kQueryRequestSize) {
        return Status::InvalidArgument(
            "protocol: query request payload must be " +
            std::to_string(kQueryRequestSize) + " bytes, got " +
            std::to_string(payload.size()));
      }
      QueryRequest q;
      q.id = GetU64(p + 1);
      q.origin_lng = GetF64(p + 9);
      q.origin_lat = GetF64(p + 17);
      q.dest_lng = GetF64(p + 25);
      q.dest_lat = GetF64(p + 33);
      q.departure_time = GetI64(p + 41);
      q.deadline_ms = GetF64(p + 49);
      q.trace_id = GetU64(p + 57);
      q.flags = p[65];
      return Message{q};
    }
    case MsgType::kQueryResponse: {
      if (payload.size() < kQueryResponseFixedSize) {
        return Status::InvalidArgument("protocol: short query response");
      }
      QueryResponse r;
      r.id = GetU64(p + 1);
      r.code = p[9];
      r.quality = p[10];
      r.has_breakdown = (p[11] & kResponseFlagBreakdown) != 0;
      r.minutes = GetF64(p + 12);
      r.breakdown.queue_us = GetF64(p + 20);
      r.breakdown.batch_wait_us = GetF64(p + 28);
      r.breakdown.stage1_us = GetF64(p + 36);
      r.breakdown.stage2_us = GetF64(p + 44);
      uint16_t msg_len = GetU16(p + 52);
      if (payload.size() != kQueryResponseFixedSize + msg_len) {
        return Status::InvalidArgument(
            "protocol: query response message length mismatch");
      }
      r.message.assign(
          reinterpret_cast<const char*>(p) + kQueryResponseFixedSize, msg_len);
      return Message{r};
    }
    case MsgType::kPing: {
      if (payload.size() != kPingSize) {
        return Status::InvalidArgument("protocol: bad ping payload size");
      }
      return Message{Ping{GetU64(p + 1)}};
    }
    case MsgType::kPong: {
      if (payload.size() != kPingSize) {
        return Status::InvalidArgument("protocol: bad pong payload size");
      }
      return Message{Pong{GetU64(p + 1)}};
    }
    default:
      return Status::InvalidArgument("protocol: unknown message type " +
                                     std::to_string(payload[0]));
  }
}

std::vector<uint8_t> EncodeFrame(const Message& msg) {
  std::vector<uint8_t> payload = EncodePayload(msg);
  std::vector<uint8_t> frame;
  frame.reserve(4 + payload.size());
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<uint8_t>(len >> (8 * i)));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

Status FrameReader::Feed(const uint8_t* data, size_t n) {
  if (!status_.ok()) return status_;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
  // Validate the next length prefix eagerly: a hostile length is reported
  // at Feed time, before any payload bytes arrive.
  if (buffered() >= 4) {
    const uint8_t* p = buf_.data() + pos_;
    uint32_t len = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
                   (static_cast<uint32_t>(p[2]) << 16) |
                   (static_cast<uint32_t>(p[3]) << 24);
    if (len > kMaxFramePayload) {
      status_ = Status::InvalidArgument(
          "protocol: frame payload length " + std::to_string(len) +
          " exceeds limit " + std::to_string(kMaxFramePayload));
    }
  }
  return status_;
}

bool FrameReader::Next(std::vector<uint8_t>* payload) {
  if (!status_.ok() || buffered() < 4) return false;
  const uint8_t* p = buf_.data() + pos_;
  uint32_t len = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
                 (static_cast<uint32_t>(p[2]) << 16) |
                 (static_cast<uint32_t>(p[3]) << 24);
  if (len > kMaxFramePayload) {  // poisoned between Feed calls (defensive)
    status_ = Status::InvalidArgument("protocol: oversized frame");
    return false;
  }
  if (buffered() < 4 + static_cast<size_t>(len)) return false;
  payload->assign(p + 4, p + 4 + len);
  pos_ += 4 + len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return true;
}

Status WriteFrame(int fd, const Message& msg) {
  std::vector<uint8_t> frame = EncodeFrame(msg);
  size_t n = frame.size();
  switch (DOT_FAILPOINT("serve.write_frame")) {
    case fail::Action::kError:
      return Status::IOError("injected frame write failure");
    case fail::Action::kTruncate:
      n = n / 2;  // torn write: half the frame reaches the wire
      break;
    default:
      break;
  }
  size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a process kill.
    ssize_t w = ::send(fd, frame.data() + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<Listener> ListenTcp(const std::string& host, int port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  auto fail = [fd](Status s) {
    ::close(fd);
    return s;
  };
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad listen host: " + host));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail(Status::IOError(std::string("bind: ") + std::strerror(errno)));
  }
  if (::listen(fd, backlog) < 0) {
    return fail(
        Status::IOError(std::string("listen: ") + std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return Listener{fd, ntohs(addr.sin_port)};
}

}  // namespace serve
}  // namespace dot
