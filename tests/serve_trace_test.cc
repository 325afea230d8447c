// Cross-boundary trace stitching: a sampled request must render as ONE
// connected tree — request root -> queue_wait / wave -> oracle spans —
// even though the root opens on the IO thread, the queue wait is
// reconstructed at wave formation, and the backend runs on the batcher
// thread (and fans into the thread pool). Tested twice: deterministically
// against a stub backend under manual pump, and end to end through a real
// socket server over a trained oracle.

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle_service.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/server.h"

namespace dot {
namespace serve {
namespace {

/// True when `id` transitively reaches `root` via parent links.
bool ReachesRoot(const std::map<uint64_t, uint64_t>& parent_of, uint64_t id,
                 uint64_t root) {
  int hops = 0;
  while (id != 0 && hops++ < 64) {
    if (id == root) return true;
    auto it = parent_of.find(id);
    if (it == parent_of.end()) return false;
    id = it->second;
  }
  return false;
}

std::map<uint64_t, uint64_t> ParentMap(
    const std::vector<obs::TraceEvent>& events) {
  std::map<uint64_t, uint64_t> parent_of;
  for (const auto& e : events) parent_of[e.id] = e.parent_id;
  return parent_of;
}

const obs::TraceEvent* FindSpan(const std::vector<obs::TraceEvent>& events,
                                const std::string& name) {
  for (const auto& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

OdtInput MakeOdt(int i) {
  OdtInput odt;
  odt.origin = {104.0 + i * 1e-3, 30.6};
  odt.destination = {104.05, 30.65 + i * 1e-3};
  odt.departure_time = 1541060400 + i * 60;
  return odt;
}

TEST(BatcherTraceTest, WaveSpansStitchUnderEveryTracedMemberRoot) {
  double fake_ms = 0;
  BatcherConfig config;
  config.max_batch = 4;
  config.max_wave_age_ms = 10.0;
  config.queue_capacity = 8;
  config.queue_budget_ms = 1000.0;
  config.now_ms = [&fake_ms] { return fake_ms; };
  config.manual_pump = true;
  // Backend stands in for OracleService::QueryBatch: opens a span the way
  // the real one does, which must inherit the wave's parent.
  DynamicBatcher batcher(
      [](const std::vector<OdtInput>& odts,
         const QueryOptions& opts) -> Result<std::vector<DotEstimate>> {
        obs::TraceSpan span("QueryBatch");
        if (opts.timing != nullptr) {
          opts.timing->stage1_us = 1000;
          opts.timing->stage2_us = 200;
        }
        return std::vector<DotEstimate>(odts.size());
      },
      config);

  obs::StartTracing();
  // Two traced members (distinct roots) + one untraced member in one wave.
  std::vector<uint64_t> roots = {obs::NewSpanId(), obs::NewSpanId(), 0};
  std::vector<int64_t> starts(3, 0);
  std::vector<TimingBreakdown> timings(3);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    starts[i] = obs::TraceNowUs();
    ASSERT_TRUE(batcher
                    .Submit(MakeOdt(i), 0, roots[i],
                            [&, i](const Result<DotEstimate>& r,
                                   const TimingBreakdown& t) {
                              EXPECT_TRUE(r.ok());
                              timings[i] = t;
                              ++done;
                            })
                    .ok());
  }
  fake_ms += 3.0;  // queue wait visible in TimingBreakdown::queue_us
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 3);
  EXPECT_EQ(done, 3);
  // Close the per-request roots the way the server does.
  for (int i = 0; i < 2; ++i) {
    obs::RecordSpan("request", roots[i], 0, starts[i],
                    obs::TraceNowUs() - starts[i]);
  }
  std::vector<obs::TraceEvent> events = obs::StopTracing();

  std::map<uint64_t, uint64_t> parent_of = ParentMap(events);
  int queue_waits = 0;
  bool wave_seen = false, backend_seen = false;
  for (const auto& e : events) {
    if (e.name == "queue_wait") {
      ++queue_waits;
      // Each queue_wait hangs under its own request's root.
      EXPECT_TRUE(e.parent_id == roots[0] || e.parent_id == roots[1]);
    } else if (e.name == "wave") {
      wave_seen = true;
      // The wave is parented to the first traced member.
      EXPECT_EQ(e.parent_id, roots[0]);
    } else if (e.name == "QueryBatch") {
      backend_seen = true;
      EXPECT_TRUE(ReachesRoot(parent_of, e.id, roots[0]))
          << "backend span must descend from the owning request root";
    }
  }
  EXPECT_EQ(queue_waits, 2);  // the untraced member records nothing
  EXPECT_TRUE(wave_seen);
  EXPECT_TRUE(backend_seen);
  // Every span recorded during the wave is reachable from a request root.
  for (const auto& e : events) {
    if (e.name == "request") continue;
    EXPECT_TRUE(ReachesRoot(parent_of, e.id, roots[0]) ||
                ReachesRoot(parent_of, e.id, roots[1]))
        << "orphaned span: " << e.name;
  }
  // Timing plumbing: the stub's stage costs and the fake-clock queue wait
  // arrive in every member's TimingBreakdown.
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(timings[i].stage1_us, 1000.0);
    EXPECT_DOUBLE_EQ(timings[i].stage2_us, 200.0);
    EXPECT_DOUBLE_EQ(timings[i].queue_us, 3000.0);
    EXPECT_GE(timings[i].batch_wait_us, 0.0);
  }
}

// --- End to end over a real oracle and a real socket ----------------------

class ServeTraceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig cc = CityConfig::ChengduLike();
    cc.grid_nodes = 8;
    cc.spacing_meters = 1300;
    city_ = new City(cc, 4);
    TripConfig tc = TripConfig::ChengduLike();
    tc.num_trips = 200;
    dataset_ = new BenchmarkDataset(BuildDataset(*city_, tc, 17, "trace"));
    grid_ = new Grid(dataset_->MakeGrid(8).ValueOrDie());
    config_ = new DotConfig();
    config_->grid_size = 8;
    config_->diffusion_steps = 20;
    config_->sample_steps = 4;
    config_->unet.base_channels = 8;
    config_->unet.levels = 2;
    config_->unet.cond_dim = 32;
    config_->estimator.embed_dim = 32;
    config_->estimator.layers = 1;
    config_->stage1_epochs = 1;
    config_->stage2_epochs = 1;
    config_->val_samples = 0;
    config_->stage2_inferred_fraction = 0.0;
    oracle_ = new DotOracle(*config_, *grid_);
    ASSERT_TRUE(oracle_->TrainStage1(dataset_->split.train).ok());
    ASSERT_TRUE(
        oracle_->TrainStage2(dataset_->split.train, dataset_->split.val).ok());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete config_;
    delete grid_;
    delete dataset_;
    delete city_;
    oracle_ = nullptr;
    config_ = nullptr;
    grid_ = nullptr;
    dataset_ = nullptr;
    city_ = nullptr;
  }

  static City* city_;
  static BenchmarkDataset* dataset_;
  static Grid* grid_;
  static DotConfig* config_;
  static DotOracle* oracle_;
};

City* ServeTraceFixture::city_ = nullptr;
BenchmarkDataset* ServeTraceFixture::dataset_ = nullptr;
Grid* ServeTraceFixture::grid_ = nullptr;
DotConfig* ServeTraceFixture::config_ = nullptr;
DotOracle* ServeTraceFixture::oracle_ = nullptr;

TEST_F(ServeTraceFixture, SampledLoopbackQueryYieldsOneConnectedTree) {
  OracleService service(oracle_);
  ServerConfig config;
  config.batcher.max_wave_age_ms = 1.0;
  Server server(OracleBackend(&service), config);
  ASSERT_TRUE(server.Start().ok());

  obs::StartTracing();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  uint64_t trace_id = Client::NewTraceId();
  Result<QueryResponse> resp =
      client.Call(/*id=*/1, dataset_->split.test[0].odt, /*deadline_ms=*/0,
                  /*timeout_ms=*/60000, trace_id,
                  kQueryFlagSampled | kQueryFlagWantBreakdown);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->code, 0) << resp->message;
  ASSERT_TRUE(resp->has_breakdown);
  EXPECT_GT(resp->breakdown.stage1_us, 0.0);  // fresh cache: a miss serve
  EXPECT_GT(resp->breakdown.stage2_us, 0.0);
  EXPECT_GE(resp->breakdown.queue_us, 0.0);
  EXPECT_GE(resp->breakdown.batch_wait_us, 0.0);

  // The root span is recorded on the batcher callback after the response
  // is queued, so the client can hold the answer before the span lands.
  bool root_recorded = false;
  for (int i = 0; i < 200 && !root_recorded; ++i) {
    for (const auto& e : obs::TraceEvents()) {
      if (e.name == "request") root_recorded = true;
    }
    if (!root_recorded) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::vector<obs::TraceEvent> events = obs::StopTracing();
  server.Shutdown();
  ASSERT_TRUE(root_recorded) << "request root span never recorded";

  const obs::TraceEvent* root = FindSpan(events, "request");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_NE(root->args.find(std::to_string(trace_id)), std::string::npos)
      << "root span args must carry the wire trace id";

  std::map<uint64_t, uint64_t> parent_of = ParentMap(events);
  for (const char* name :
       {"queue_wait", "wave", "OracleService::QueryBatch",
        "DotOracle::InferPits", "DotOracle::EstimateFromPits"}) {
    const obs::TraceEvent* span = FindSpan(events, name);
    ASSERT_NE(span, nullptr) << "missing span " << name;
    EXPECT_TRUE(ReachesRoot(parent_of, span->id, root->id))
        << name << " is not connected to the request root";
  }
}

}  // namespace
}  // namespace serve
}  // namespace dot
