// Concurrency stress for the serving front-end, designed to run under
// TSan: N client threads hammer a loopback server whose backend is a
// deterministic stub (no model — the point is the locking, batching, and
// backpressure, not diffusion). Asserts:
//   - every request gets exactly one response, ids echoed correctly
//   - overload is answered with typed ResourceExhausted responses
//   - graceful drain: requests in flight at Shutdown are still answered
//   - the dot_server_* stats reconcile with client-observed responses

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.h"
#include "serve/server.h"

namespace dot {
namespace serve {
namespace {

OdtInput MakeOdt(int i) {
  OdtInput odt;
  odt.origin = {104.0 + (i % 17) * 1e-3, 30.6};
  odt.destination = {104.05, 30.65 + (i % 13) * 1e-3};
  odt.departure_time = 1541060400 + i;
  return odt;
}

/// Deterministic stub: minutes = departure_time % 1000, optionally slowed
/// to force queue growth.
BatchBackend StubBackend(std::atomic<int64_t>* served, double delay_ms = 0) {
  return [served, delay_ms](const std::vector<OdtInput>& odts,
                            const QueryOptions&)
             -> Result<std::vector<DotEstimate>> {
    if (delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
    std::vector<DotEstimate> out(odts.size());
    for (size_t i = 0; i < odts.size(); ++i) {
      out[i].minutes = static_cast<double>(odts[i].departure_time % 1000);
      out[i].quality = ServedQuality::kFull;
    }
    served->fetch_add(static_cast<int64_t>(odts.size()));
    return out;
  };
}

TEST(ServeStressTest, ManyClientsManyRequestsAllAnswered) {
  const int kClients = 8;
  const int kPerClient = 200;
  std::atomic<int64_t> served{0};
  ServerConfig config;
  config.batcher.max_batch = 16;
  config.batcher.max_wave_age_ms = 1.0;
  config.batcher.queue_capacity = 1 << 14;  // no overload in this test
  config.batcher.queue_budget_ms = 60000;
  Server server(StubBackend(&served), config);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int64_t> ok_responses{0};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      // Pipeline a window of 8 requests to give the batcher real waves.
      const int kWindow = 8;
      uint64_t next_id = static_cast<uint64_t>(c) << 32;
      int sent = 0, received = 0;
      while (received < kPerClient) {
        while (sent < kPerClient && sent - received < kWindow) {
          OdtInput odt = MakeOdt(c * kPerClient + sent);
          ASSERT_TRUE(client.SendQuery(next_id + sent, odt).ok());
          ++sent;
        }
        Result<QueryResponse> r =
            client.ReceiveFor(next_id + received, /*timeout_ms=*/30000);
        ASSERT_TRUE(r.ok()) << r.status();
        if (r->code == 0) {
          double expect = static_cast<double>(
              MakeOdt(c * kPerClient + received).departure_time % 1000);
          if (r->minutes == expect) {
            ok_responses.fetch_add(1);
          } else {
            mismatches.fetch_add(1);
          }
        }
        ++received;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ok_responses.load(), kClients * kPerClient);

  server.Shutdown();
  ServerStats stats = server.stats();
  BatcherStats bstats = server.batcher_stats();
  // Server-side accounting must reconcile with what the clients saw.
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.responses, kClients * kPerClient);
  EXPECT_EQ(stats.overload_rejected, 0);
  EXPECT_EQ(bstats.submitted, kClients * kPerClient);
  EXPECT_EQ(bstats.completed, kClients * kPerClient);
  EXPECT_EQ(served.load(), kClients * kPerClient);
  EXPECT_EQ(stats.connections_accepted, kClients);
  // Pipelined arrivals must actually coalesce: strictly fewer backend waves
  // than requests (mean wave size > 1).
  EXPECT_LT(bstats.waves, static_cast<int64_t>(kClients) * kPerClient);
  EXPECT_GE(bstats.waves, 1);
}

TEST(ServeStressTest, MalformedQueryIsAnsweredAloneAmongPipelinedFrames) {
  // One connection pipelines 8 frames, the 4th with a NaN origin. The bad
  // query is refused at admission, so it cannot fail the wave its
  // neighbours share.
  std::atomic<int64_t> served{0};
  Server server(StubBackend(&served));
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const int kFrames = 8;
  const int kBad = 3;
  for (int i = 0; i < kFrames; ++i) {
    OdtInput odt = MakeOdt(i);
    if (i == kBad) odt.origin.lng = std::nan("");
    ASSERT_TRUE(client.SendQuery(i, odt).ok());
  }
  for (int i = 0; i < kFrames; ++i) {
    Result<QueryResponse> r = client.ReceiveFor(i, /*timeout_ms=*/30000);
    ASSERT_TRUE(r.ok()) << r.status();
    if (i == kBad) {
      EXPECT_EQ(r->code, static_cast<uint8_t>(StatusCode::kInvalidArgument));
      EXPECT_FALSE(r->message.empty());
    } else {
      EXPECT_EQ(r->code, 0) << r->message;
      EXPECT_EQ(r->minutes,
                static_cast<double>(MakeOdt(i).departure_time % 1000));
    }
  }
  server.Shutdown();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kFrames);
  EXPECT_EQ(stats.responses, kFrames);
  EXPECT_EQ(stats.overload_rejected, 0);
  EXPECT_EQ(served.load(), kFrames - 1);
}

TEST(ServeStressTest, OverloadYieldsTypedRejectionsAndServerSurvives) {
  std::atomic<int64_t> served{0};
  ServerConfig config;
  config.batcher.max_batch = 4;
  config.batcher.queue_capacity = 8;  // tiny: easy to overflow
  config.batcher.queue_budget_ms = 10000;
  config.batcher.max_wave_age_ms = 1.0;
  Server server(StubBackend(&served, /*delay_ms=*/20), config);
  ASSERT_TRUE(server.Start().ok());

  const int kClients = 4;
  const int kPerClient = 100;
  std::atomic<int64_t> oks{0};
  std::atomic<int64_t> rejections{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      uint64_t base = static_cast<uint64_t>(c) << 32;
      // Blast the whole batch without reading: floods the bounded queue.
      for (int i = 0; i < kPerClient; ++i) {
        ASSERT_TRUE(client.SendQuery(base + i, MakeOdt(i)).ok());
      }
      for (int i = 0; i < kPerClient; ++i) {
        Result<QueryResponse> r =
            client.ReceiveFor(base + i, /*timeout_ms=*/60000);
        ASSERT_TRUE(r.ok()) << r.status();
        if (r->code == 0) {
          oks.fetch_add(1);
        } else {
          // Typed backpressure, not a garbled error.
          EXPECT_EQ(r->code,
                    static_cast<uint8_t>(StatusCode::kResourceExhausted));
          EXPECT_FALSE(r->message.empty());
          rejections.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Every request was answered one way or the other...
  EXPECT_EQ(oks.load() + rejections.load(), kClients * kPerClient);
  // ...and the tiny queue + slow backend guarantee real shedding happened.
  EXPECT_GT(rejections.load(), 0);
  EXPECT_GT(oks.load(), 0);

  server.Shutdown();
  ServerStats stats = server.stats();
  BatcherStats bstats = server.batcher_stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.responses, kClients * kPerClient);
  EXPECT_EQ(stats.overload_rejected, rejections.load());
  EXPECT_EQ(bstats.rejected_full + bstats.rejected_stale, rejections.load());
  EXPECT_EQ(bstats.completed, oks.load());
  EXPECT_EQ(served.load(), oks.load());
}

TEST(ServeStressTest, GracefulDrainAnswersInFlightRequests) {
  std::atomic<int64_t> served{0};
  ServerConfig config;
  config.batcher.max_batch = 8;
  config.batcher.max_wave_age_ms = 50.0;  // slow trigger: queue builds up
  config.batcher.queue_capacity = 1 << 12;
  config.batcher.queue_budget_ms = 60000;
  Server server(StubBackend(&served, /*delay_ms=*/5), config);
  ASSERT_TRUE(server.Start().ok());

  const int kInFlight = 64;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client.SendQuery(i, MakeOdt(i)).ok());
  }
  // Wait until the IO thread has admitted at least one query: a Shutdown
  // that wins the race would drain an empty batcher and test nothing.
  const auto admit_limit =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.batcher_stats().submitted < 1 &&
         std::chrono::steady_clock::now() < admit_limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server.batcher_stats().submitted, 1);
  // Shut down while (most of) those are still queued. Drain must answer
  // every admitted request and flush the responses before sockets close.
  std::thread shutdown_thread([&] { server.Shutdown(); });
  int answered = 0;
  for (int i = 0; i < kInFlight; ++i) {
    Result<QueryResponse> r = client.ReceiveFor(i, /*timeout_ms=*/30000);
    if (!r.ok()) break;  // connection closed after the drain completed
    EXPECT_TRUE(r->code == 0 ||
                r->code ==
                    static_cast<uint8_t>(StatusCode::kFailedPrecondition));
    ++answered;
  }
  shutdown_thread.join();

  BatcherStats bstats = server.batcher_stats();
  ServerStats stats = server.stats();
  // Everything the batcher admitted was completed (the drain guarantee) and
  // written back to the client before the connection closed.
  EXPECT_EQ(bstats.completed, bstats.submitted);
  EXPECT_EQ(answered, stats.responses);
  EXPECT_EQ(served.load(), bstats.completed);
  EXPECT_GE(bstats.drain_flushes + bstats.age_flushes + bstats.size_flushes,
            1);
}

TEST(ServeStressTest, PingsInterleaveWithQueriesAcrossThreads) {
  std::atomic<int64_t> served{0};
  Server server(StubBackend(&served));
  ASSERT_TRUE(server.Start().ok());
  const int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      for (int i = 0; i < 50; ++i) {
        uint64_t id = static_cast<uint64_t>(c) * 1000 + i;
        if (i % 5 == 0) {
          EXPECT_TRUE(client.PingServer(id, /*timeout_ms=*/10000).ok());
        } else {
          Result<QueryResponse> r =
              client.Call(id, MakeOdt(i), /*deadline_ms=*/50,
                          /*timeout_ms=*/10000);
          ASSERT_TRUE(r.ok()) << r.status();
          EXPECT_EQ(r->id, id);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Shutdown();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.pings, kClients * 10);
  EXPECT_EQ(stats.requests, kClients * 40);
  EXPECT_EQ(stats.responses, stats.requests);
}

TEST(ServeStressTest, ConcurrentShutdownIsIdempotent) {
  std::atomic<int64_t> served{0};
  auto server = std::make_unique<Server>(StubBackend(&served));
  ASSERT_TRUE(server->Start().ok());
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { server->Shutdown(); });
  }
  for (auto& t : stoppers) t.join();
  server.reset();  // destructor Shutdown after explicit ones: also safe
}

}  // namespace
}  // namespace serve
}  // namespace dot
