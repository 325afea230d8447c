// Wire-protocol tests for the serving front-end: encode/decode roundtrips
// for every message type, incremental frame parsing under arbitrary
// fragmentation, and malformed-frame handling (truncated header, oversized
// length prefix, garbage payloads, torn writes via the serve.write_frame
// failpoint) — a hostile byte stream must yield typed errors, never UB.

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "util/failpoint.h"

namespace dot {
namespace serve {
namespace {

class ProtocolTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::DisarmAll(); }
};

QueryRequest SampleRequest() {
  QueryRequest q;
  q.id = 0xDEADBEEFCAFEull;
  q.origin_lng = 104.0123456789;
  q.origin_lat = 30.6987654321;
  q.dest_lng = 104.1;
  q.dest_lat = 30.58;
  q.departure_time = 1541060400;
  q.deadline_ms = 75.5;
  return q;
}

TEST_F(ProtocolTest, QueryRequestRoundtrip) {
  QueryRequest q = SampleRequest();  // trace_id == 0, flags == 0
  std::vector<uint8_t> payload = EncodePayload(Message{q});
  EXPECT_EQ(payload[0], static_cast<uint8_t>(MsgType::kQueryRequest));
  EXPECT_EQ(payload.size(), 66u);
  Result<Message> decoded = DecodePayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto* got = std::get_if<QueryRequest>(&*decoded);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id, q.id);
  EXPECT_EQ(got->origin_lng, q.origin_lng);  // bitwise: IEEE-754 passthrough
  EXPECT_EQ(got->origin_lat, q.origin_lat);
  EXPECT_EQ(got->dest_lng, q.dest_lng);
  EXPECT_EQ(got->dest_lat, q.dest_lat);
  EXPECT_EQ(got->departure_time, q.departure_time);
  EXPECT_EQ(got->deadline_ms, q.deadline_ms);
  EXPECT_EQ(got->trace_id, 0u);
  EXPECT_EQ(got->flags, 0u);
}

TEST_F(ProtocolTest, QueryResponseRoundtrip) {
  QueryResponse r;
  r.id = 42;
  r.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
  r.quality = 2;
  r.minutes = 17.25;
  r.message = "server overloaded: queue full";
  std::vector<uint8_t> payload = EncodePayload(Message{r});
  EXPECT_EQ(payload[0], static_cast<uint8_t>(MsgType::kQueryResponse));
  EXPECT_EQ(payload.size(), 54u + r.message.size());
  Result<Message> decoded = DecodePayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto* got = std::get_if<QueryResponse>(&*decoded);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id, r.id);
  EXPECT_EQ(got->code, r.code);
  EXPECT_EQ(got->quality, r.quality);
  EXPECT_EQ(got->minutes, r.minutes);
  EXPECT_EQ(got->message, r.message);
  EXPECT_FALSE(got->has_breakdown);
  EXPECT_EQ(got->breakdown.queue_us, 0.0);
  EXPECT_EQ(got->breakdown.batch_wait_us, 0.0);
  EXPECT_EQ(got->breakdown.stage1_us, 0.0);
  EXPECT_EQ(got->breakdown.stage2_us, 0.0);
}

TEST_F(ProtocolTest, EmptyMessageResponseRoundtrip) {
  QueryResponse r;
  r.id = 7;
  r.minutes = 3.5;
  Result<Message> decoded = DecodePayload(EncodePayload(Message{r}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<QueryResponse>(*decoded).message.empty());
}

TEST_F(ProtocolTest, OverlongErrorMessageIsTruncatedOnTheWire) {
  QueryResponse r;
  r.id = 1;
  r.code = static_cast<uint8_t>(StatusCode::kInternal);
  r.message = std::string(4 * kMaxErrorMessage, 'x');
  Result<Message> decoded = DecodePayload(EncodePayload(Message{r}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<QueryResponse>(*decoded).message.size(),
            kMaxErrorMessage);
}

TEST_F(ProtocolTest, PingPongRoundtrip) {
  Result<Message> ping = DecodePayload(EncodePayload(Message{Ping{99}}));
  Result<Message> pong = DecodePayload(EncodePayload(Message{Pong{100}}));
  ASSERT_TRUE(ping.ok());
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(std::get<Ping>(*ping).id, 99u);
  EXPECT_EQ(std::get<Pong>(*pong).id, 100u);
}

TEST_F(ProtocolTest, DecodeRejectsGarbage) {
  EXPECT_TRUE(DecodePayload({}).status().IsInvalidArgument());
  // Unknown type byte.
  EXPECT_TRUE(DecodePayload({0x7F, 1, 2, 3}).status().IsInvalidArgument());
  EXPECT_TRUE(DecodePayload({0}).status().IsInvalidArgument());
  // Right type, one byte short or one byte long, for each message type.
  QueryResponse r;
  r.id = 1;
  r.message = "abc";
  for (const Message& m : {Message{SampleRequest()}, Message{r},
                           Message{Ping{1}}, Message{Pong{2}}}) {
    std::vector<uint8_t> payload = EncodePayload(m);
    ASSERT_TRUE(DecodePayload(payload).ok());
    std::vector<uint8_t> shorter(payload.begin(), payload.end() - 1);
    EXPECT_TRUE(DecodePayload(shorter).status().IsInvalidArgument())
        << "type " << static_cast<int>(payload[0]) << " one byte short";
    std::vector<uint8_t> longer = payload;
    longer.push_back(0);
    EXPECT_TRUE(DecodePayload(longer).status().IsInvalidArgument())
        << "type " << static_cast<int>(payload[0]) << " one byte long";
  }
  // Response whose message length overruns the payload.
  std::vector<uint8_t> resp = EncodePayload(Message{r});
  resp[52] = 200;  // lie about the message length
  EXPECT_TRUE(DecodePayload(resp).status().IsInvalidArgument());
}

TEST_F(ProtocolTest, DecodeNeverCrashesOnRandomPayloads) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng() % 80;
    std::vector<uint8_t> payload(len);
    for (auto& b : payload) b = static_cast<uint8_t>(rng());
    Result<Message> decoded = DecodePayload(payload);  // must not crash
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsInvalidArgument());
    }
  }
}

TEST_F(ProtocolTest, FrameReaderReassemblesByteByByte) {
  std::vector<uint8_t> stream;
  std::vector<Message> sent = {Message{SampleRequest()}, Message{Ping{5}},
                               Message{Pong{6}}};
  for (const Message& m : sent) {
    std::vector<uint8_t> f = EncodeFrame(m);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameReader reader;
  std::vector<std::vector<uint8_t>> out;
  std::vector<uint8_t> payload;
  for (uint8_t b : stream) {  // worst-case fragmentation: one byte per Feed
    ASSERT_TRUE(reader.Feed(&b, 1).ok());
    while (reader.Next(&payload)) out.push_back(payload);
  }
  ASSERT_EQ(out.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(out[i], EncodePayload(sent[i]));
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST_F(ProtocolTest, FrameReaderTruncatedHeaderNeverYields) {
  FrameReader reader;
  uint8_t partial[3] = {57, 0, 0};  // 3 of the 4 length bytes
  ASSERT_TRUE(reader.Feed(partial, sizeof(partial)).ok());
  std::vector<uint8_t> payload;
  EXPECT_FALSE(reader.Next(&payload));
  EXPECT_EQ(reader.buffered(), 3u);
  EXPECT_TRUE(reader.status().ok());  // incomplete, not an error
}

TEST_F(ProtocolTest, FrameReaderPoisonsOnOversizedLength) {
  FrameReader reader;
  uint8_t header[4];
  uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(header, &huge, 4);
  EXPECT_FALSE(reader.Feed(header, 4).ok());
  EXPECT_TRUE(reader.status().IsInvalidArgument());
  std::vector<uint8_t> payload;
  EXPECT_FALSE(reader.Next(&payload));
  // Sticky: further feeds stay rejected.
  uint8_t b = 0;
  EXPECT_FALSE(reader.Feed(&b, 1).ok());
}

TEST_F(ProtocolTest, FrameReaderCompactsLongStreams) {
  // Many frames through one reader: the consumed prefix must be reclaimed,
  // not retained forever.
  FrameReader reader;
  std::vector<uint8_t> frame = EncodeFrame(Message{SampleRequest()});
  std::vector<uint8_t> payload;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(reader.Feed(frame.data(), frame.size()).ok());
    ASSERT_TRUE(reader.Next(&payload));
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST_F(ProtocolTest, TornWriteLeavesIncompleteFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // First frame torn in half by the failpoint, second written intact: the
  // reader must never surface the torn frame, and the stream stays
  // undecodable from then on (framing has lost sync) without crashing.
  fail::Arm("serve.write_frame", fail::Action::kTruncate, /*count=*/1);
  ASSERT_TRUE(WriteFrame(fds[0], Message{SampleRequest()}).ok());
  ASSERT_TRUE(WriteFrame(fds[0], Message{Ping{1}}).ok());
  ::close(fds[0]);
  FrameReader reader;
  std::vector<uint8_t> buf(4096);
  ssize_t n;
  while ((n = ::read(fds[1], buf.data(), buf.size())) > 0) {
    reader.Feed(buf.data(), static_cast<size_t>(n));
  }
  ::close(fds[1]);
  std::vector<uint8_t> payload;
  while (reader.Next(&payload)) {
    // Any frame that does surface must decode to the original request, not
    // a hybrid of the torn bytes.
    Result<Message> decoded = DecodePayload(payload);
    if (decoded.ok()) {
      EXPECT_NE(std::get_if<QueryRequest>(&*decoded), nullptr);
    }
  }
  // The torn first frame holds the reader short of the second one.
  EXPECT_GT(reader.buffered(), 0u);
}

TEST_F(ProtocolTest, WriteFrameErrorFailpoint) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  fail::Arm("serve.write_frame", fail::Action::kError, /*count=*/1);
  EXPECT_TRUE(WriteFrame(fds[0], Message{Ping{1}}).IsIOError());
  EXPECT_TRUE(WriteFrame(fds[0], Message{Ping{2}}).ok());  // disarmed again
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(ProtocolTest, MixedMessageStreamOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrame(fds[0], Message{Pong{31}}).ok());
  QueryResponse r;
  r.id = 11;
  r.minutes = 5.5;
  ASSERT_TRUE(WriteFrame(fds[0], Message{r}).ok());

  FrameReader reader;
  std::vector<uint8_t> buf(4096);
  ssize_t n = ::read(fds[1], buf.data(), buf.size());
  ASSERT_GT(n, 0);
  ASSERT_TRUE(reader.Feed(buf.data(), static_cast<size_t>(n)).ok());
  std::vector<uint8_t> payload;
  ASSERT_TRUE(reader.Next(&payload));
  Result<Message> first = DecodePayload(payload);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(std::get<Pong>(*first).id, 31u);
  ASSERT_TRUE(reader.Next(&payload));
  Result<Message> second = DecodePayload(payload);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(std::get<QueryResponse>(*second).id, 11u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- Trace context + timing breakdown --------------------------------------
// These fields once had message types of their own (the "V2" in the test
// names); every request and response now carries them in its one layout.

TEST_F(ProtocolTest, V2RequestRoundtripCarriesTraceContext) {
  // trace_id under each combination of the flag bits: same type, same size.
  constexpr uint8_t kBoth = kQueryFlagSampled | kQueryFlagWantBreakdown;
  for (uint8_t flags :
       {uint8_t{0}, kQueryFlagSampled, kQueryFlagWantBreakdown, kBoth}) {
    QueryRequest q = SampleRequest();
    q.trace_id = 0x1122334455667788ull;
    q.flags = flags;
    std::vector<uint8_t> payload = EncodePayload(Message{q});
    EXPECT_EQ(payload[0], static_cast<uint8_t>(MsgType::kQueryRequest));
    EXPECT_EQ(payload.size(), 66u);
    Result<Message> decoded = DecodePayload(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    const auto* got = std::get_if<QueryRequest>(&*decoded);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->id, q.id);
    EXPECT_EQ(got->deadline_ms, q.deadline_ms);
    EXPECT_EQ(got->trace_id, q.trace_id);
    EXPECT_EQ(got->flags, flags);
  }
}

TEST_F(ProtocolTest, V2ResponseRoundtripCarriesBreakdown) {
  QueryResponse r;
  r.id = 77;
  r.quality = 1;
  r.minutes = 23.75;
  r.message = "still carries a message";
  r.code = static_cast<uint8_t>(StatusCode::kDeadlineExceeded);
  r.has_breakdown = true;
  r.breakdown.queue_us = 120.5;
  r.breakdown.batch_wait_us = 310.25;
  r.breakdown.stage1_us = 90000.0;
  r.breakdown.stage2_us = 1500.0;
  std::vector<uint8_t> payload = EncodePayload(Message{r});
  EXPECT_EQ(payload[0], static_cast<uint8_t>(MsgType::kQueryResponse));
  EXPECT_EQ(payload.size(), 54u + r.message.size());
  Result<Message> decoded = DecodePayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto* got = std::get_if<QueryResponse>(&*decoded);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->id, r.id);
  EXPECT_EQ(got->code, r.code);
  EXPECT_EQ(got->quality, r.quality);
  EXPECT_EQ(got->minutes, r.minutes);
  EXPECT_EQ(got->message, r.message);
  ASSERT_TRUE(got->has_breakdown);
  EXPECT_EQ(got->breakdown.queue_us, r.breakdown.queue_us);
  EXPECT_EQ(got->breakdown.batch_wait_us, r.breakdown.batch_wait_us);
  EXPECT_EQ(got->breakdown.stage1_us, r.breakdown.stage1_us);
  EXPECT_EQ(got->breakdown.stage2_us, r.breakdown.stage2_us);
}

TEST_F(ProtocolTest, TruncatedV2RequestIsRejected) {
  QueryRequest q = SampleRequest();
  q.trace_id = 42;
  std::vector<uint8_t> payload = EncodePayload(Message{q});
  payload.pop_back();  // drop the flags byte
  Result<Message> decoded = DecodePayload(payload);
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

TEST_F(ProtocolTest, ShortV2ResponseIsRejected) {
  QueryResponse r;
  r.id = 5;
  r.has_breakdown = true;
  std::vector<uint8_t> payload = EncodePayload(Message{r});
  payload.resize(40);  // cut inside the breakdown block
  Result<Message> decoded = DecodePayload(payload);
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

}  // namespace
}  // namespace serve
}  // namespace dot
