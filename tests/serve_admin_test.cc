// Admin/introspection plane tests: raw-socket HTTP against a live
// AdminServer — endpoint routing, readiness flipping, Prometheus and JSON
// rendering (including hostile strings in the slow-query ring and in an
// adaptation round's error), and the bounded /tracez capture.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "serve/adapt.h"
#include "serve/admin.h"

namespace dot {
namespace serve {
namespace {

/// One-shot HTTP/1.0 exchange; returns the raw response (headers + body).
std::string HttpGet(int port, const std::string& target,
                    const std::string& method = "GET") {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string req = method + " " + target + " HTTP/1.0\r\n\r\n";
  ::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

class AdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ring_.Push(MakeRecord());
    AdminHooks hooks;
    hooks.server_json = [] { return std::string("{\"requests\": 12}"); };
    hooks.slow_ring = &ring_;
    admin_ = std::make_unique<AdminServer>(AdminConfig{}, hooks);
    ASSERT_TRUE(admin_->Start().ok());
    ASSERT_GT(admin_->port(), 0);
  }

  static obs::SlowQueryRecord MakeRecord() {
    obs::SlowQueryRecord rec;
    rec.trace_id = 0xABCD;
    rec.request_id = 3;
    rec.latency_ms = 250.5;
    rec.note = "hostile \"note\"\nwith\tcontrols";
    return rec;
  }

  obs::SlowQueryRing ring_{8};
  std::unique_ptr<AdminServer> admin_;
};

TEST_F(AdminTest, HealthzAlwaysOk) {
  std::string resp = HttpGet(admin_->port(), "/healthz");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("ok\n"), std::string::npos);
}

TEST_F(AdminTest, ReadyzFlipsWithDrainState) {
  std::string ready = HttpGet(admin_->port(), "/readyz");
  EXPECT_NE(ready.find("200 OK"), std::string::npos);
  EXPECT_NE(ready.find("ready"), std::string::npos);
  admin_->SetReady(false);
  std::string draining = HttpGet(admin_->port(), "/readyz");
  EXPECT_NE(draining.find("503"), std::string::npos);
  EXPECT_NE(draining.find("draining"), std::string::npos);
  admin_->SetReady(true);
  EXPECT_NE(HttpGet(admin_->port(), "/readyz").find("200 OK"),
            std::string::npos);
}

TEST_F(AdminTest, MetricsServesPrometheusText) {
  obs::MetricsRegistry::Get().GetCounter("test_admin_counter")->Increment();
  obs::MetricsRegistry::Get().GetWindow("test_admin_window")->Observe(5.0);
  std::string resp = HttpGet(admin_->port(), "/metrics");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("# TYPE"), std::string::npos);
  EXPECT_NE(resp.find("test_admin_counter"), std::string::npos);
  EXPECT_NE(resp.find("test_admin_window_window_p95"), std::string::npos);
}

TEST_F(AdminTest, VarzCombinesRegistryAndServerSections) {
  std::string resp = HttpGet(admin_->port(), "/varz");
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"metrics\""), std::string::npos);
  EXPECT_NE(resp.find("\"windows\""), std::string::npos);
  EXPECT_NE(resp.find("\"server\": {\"requests\": 12}"), std::string::npos);
  // Structural sanity on the body: balanced braces.
  size_t body = resp.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  int depth = 0;
  for (size_t i = body; i < resp.size(); ++i) {
    if (resp[i] == '{') ++depth;
    if (resp[i] == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(AdminTest, SlowzDumpsTheRingWithEscaping) {
  std::string resp = HttpGet(admin_->port(), "/slowz");
  EXPECT_NE(resp.find("\"records\""), std::string::npos);
  EXPECT_NE(resp.find("hostile \\\"note\\\"\\nwith\\tcontrols"),
            std::string::npos);
  size_t body = resp.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  for (size_t i = body + 4; i < resp.size(); ++i) {
    if (resp[i] == '\n') continue;  // structural formatting, not a leak
    EXPECT_GE(static_cast<unsigned char>(resp[i]), 0x20)
        << "raw control byte leaked into /slowz JSON";
  }
}

TEST_F(AdminTest, AdaptzEscapesControlBytesInARoundError) {
  AdaptRound round;
  round.round = 1;
  round.error = "a\tb\rc\x01";
  AdminHooks hooks;
  hooks.adapt_json = [&round] { return round.ToJson(); };
  AdminServer admin{AdminConfig{}, hooks};
  ASSERT_TRUE(admin.Start().ok());
  std::string resp = HttpGet(admin.port(), "/adaptz");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("\"error\": \"a\\tb\\rc\\u0001\""), std::string::npos)
      << resp;
  size_t body = resp.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  for (size_t i = body + 4; i < resp.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(resp[i]), 0x20)
        << "raw control byte leaked into /adaptz JSON";
  }
}

TEST_F(AdminTest, TracezCapturesABoundedTrace) {
  ASSERT_FALSE(obs::TracingEnabled());
  std::string resp = HttpGet(admin_->port(), "/tracez?sec=0");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("\"traceEvents\""), std::string::npos);
  EXPECT_FALSE(obs::TracingEnabled()) << "/tracez must stop its recording";
}

TEST_F(AdminTest, TracezRejectsBadSecAndActiveRecordings) {
  EXPECT_NE(HttpGet(admin_->port(), "/tracez?sec=bogus").find("400"),
            std::string::npos);
  EXPECT_NE(HttpGet(admin_->port(), "/tracez?wrong=1").find("400"),
            std::string::npos);
  obs::StartTracing();
  EXPECT_NE(HttpGet(admin_->port(), "/tracez?sec=0").find("409"),
            std::string::npos);
  obs::StopTracing();
}

TEST_F(AdminTest, UnknownPathsAndMethodsAreRejected) {
  EXPECT_NE(HttpGet(admin_->port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(HttpGet(admin_->port(), "/healthz", "POST").find("405"),
            std::string::npos);
}

TEST_F(AdminTest, ShardzAndSwapzAre404WithoutShardHooks) {
  // The default fixture wires no shard hooks: the process runs unsharded.
  EXPECT_NE(HttpGet(admin_->port(), "/shardz").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(admin_->port(), "/swapz", "POST").find("404"),
            std::string::npos);
}

TEST_F(AdminTest, ShardzRendersTheHookJson) {
  AdminHooks hooks;
  hooks.shardz_json = [] {
    return std::string("{\"shards\": [{\"id\": \"0\"}]}");
  };
  AdminServer admin{AdminConfig{}, hooks};
  ASSERT_TRUE(admin.Start().ok());
  std::string resp = HttpGet(admin.port(), "/shardz");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("{\"shards\": [{\"id\": \"0\"}]}"), std::string::npos);
}

TEST_F(AdminTest, SwapzRequiresPostAndReportsTheSwapResult) {
  int swaps = 0;
  Status next = Status::OK();
  AdminHooks hooks;
  hooks.swap = [&swaps, &next] {
    ++swaps;
    return next;
  };
  AdminServer admin{AdminConfig{}, hooks};
  ASSERT_TRUE(admin.Start().ok());
  // A GET must not trigger the swap — it is the one mutating endpoint.
  std::string got = HttpGet(admin.port(), "/swapz");
  EXPECT_NE(got.find("405"), std::string::npos);
  EXPECT_EQ(swaps, 0);
  std::string ok = HttpGet(admin.port(), "/swapz", "POST");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("swap ok"), std::string::npos);
  EXPECT_EQ(swaps, 1);
  next = Status::Internal("canary failed");
  std::string failed = HttpGet(admin.port(), "/swapz", "POST");
  EXPECT_NE(failed.find("500"), std::string::npos);
  EXPECT_NE(failed.find("canary failed"), std::string::npos);
  EXPECT_EQ(swaps, 2);
}

TEST_F(AdminTest, ShutdownIsIdempotentAndStopsServing) {
  int port = admin_->port();
  admin_->Shutdown();
  admin_->Shutdown();
  EXPECT_TRUE(HttpGet(port, "/healthz").empty());
}

}  // namespace
}  // namespace serve
}  // namespace dot
