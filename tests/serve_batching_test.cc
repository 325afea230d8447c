// DynamicBatcher policy tests under an injectable fake clock (manual_pump
// mode: no background thread, PumpOnce drives wave formation
// deterministically), plus the end-to-end bitwise-equivalence certificate:
// answers served through the batcher must equal direct QueryBatch calls on
// identical oracle state, so the front-end adds concurrency, not noise.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle_service.h"
#include "serve/batcher.h"

namespace dot {
namespace serve {
namespace {

/// Shared fake time source; tests advance it explicitly.
struct FakeClock {
  double ms = 0;
  std::function<double()> fn() {
    return [this] { return ms; };
  }
};

OdtInput MakeOdt(int i) {
  OdtInput odt;
  odt.origin = {104.0 + i * 1e-3, 30.6};
  odt.destination = {104.05, 30.65 + i * 1e-3};
  odt.departure_time = 1541060400 + i * 60;
  return odt;
}

/// Backend stub: answers minutes = 100 * index-in-wave + wave_number and
/// records every wave it saw.
struct StubBackend {
  std::vector<std::vector<OdtInput>> waves;
  std::vector<double> deadlines;  // QueryOptions.deadline_ms per wave
  Status fail_with;               // non-OK: every wave fails

  BatchBackend fn() {
    return [this](const std::vector<OdtInput>& odts,
                  const QueryOptions& opts) -> Result<std::vector<DotEstimate>> {
      waves.push_back(odts);
      deadlines.push_back(opts.deadline_ms);
      if (!fail_with.ok()) return fail_with;
      std::vector<DotEstimate> out(odts.size());
      for (size_t i = 0; i < odts.size(); ++i) {
        out[i].minutes = 100.0 * static_cast<double>(i) +
                         static_cast<double>(waves.size());
      }
      return out;
    };
  }
};

BatcherConfig ManualConfig(FakeClock* clock) {
  BatcherConfig config;
  config.max_batch = 4;
  config.max_wave_age_ms = 10.0;
  config.queue_capacity = 8;
  config.queue_budget_ms = 50.0;
  config.now_ms = clock->fn();
  config.manual_pump = true;
  return config;
}

TEST(BatcherPolicyTest, SizeTriggerFlushesFullWave) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  std::vector<double> answers;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(batcher
                    .Submit(MakeOdt(i), 0,
                            [&](const Result<DotEstimate>& r) {
                              ASSERT_TRUE(r.ok());
                              answers.push_back(r->minutes);
                            })
                    .ok());
  }
  // No time has passed: the flush is purely the size trigger.
  EXPECT_EQ(batcher.PumpOnce(), 4);
  ASSERT_EQ(backend.waves.size(), 1u);
  EXPECT_EQ(backend.waves[0].size(), 4u);
  ASSERT_EQ(answers.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(answers[i], 100.0 * i + 1);  // FIFO order preserved
  }
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.size_flushes, 1);
  EXPECT_EQ(stats.age_flushes, 0);
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.completed, 4);
}

TEST(BatcherPolicyTest, AgeTriggerFlushesPartialWave) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  int done = 0;
  ASSERT_TRUE(batcher
                  .Submit(MakeOdt(0), 0,
                          [&](const Result<DotEstimate>& r) {
                            EXPECT_TRUE(r.ok());
                            ++done;
                          })
                  .ok());
  EXPECT_EQ(batcher.PumpOnce(), 0);  // under max_batch, not old enough
  clock.ms += 9.99;
  EXPECT_EQ(batcher.PumpOnce(), 0);  // still one tick short of the age limit
  clock.ms += 0.02;
  EXPECT_EQ(batcher.PumpOnce(), 1);  // a lone query must not wait forever
  EXPECT_EQ(done, 1);
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.age_flushes, 1);
  EXPECT_EQ(stats.size_flushes, 0);
}

TEST(BatcherPolicyTest, EarliestDeadlinePropagatesToQueryOptions) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  // Deadlines 200ms, 80ms, none. 5ms passes in the queue. The wave budget
  // must be the most urgent member's *remaining* time: 80 - 5 = 75.
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 200.0, ignore).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 80.0, ignore).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(2), 0.0, ignore).ok());
  clock.ms += 5.0;
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 3);
  ASSERT_EQ(backend.deadlines.size(), 1u);
  EXPECT_DOUBLE_EQ(backend.deadlines[0], 75.0);
}

TEST(BatcherPolicyTest, NoDeadlinesMeansUnboundedWave) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0.0, ignore).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 0.0, ignore).ok());
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 2);
  ASSERT_EQ(backend.deadlines.size(), 1u);
  EXPECT_DOUBLE_EQ(backend.deadlines[0], 0.0);  // 0 = no deadline
}

TEST(BatcherPolicyTest, ExpiredDeadlineClampsToTinyPositiveBudget) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 3.0, ignore).ok());
  clock.ms += 20.0;  // waited far past its deadline
  EXPECT_EQ(batcher.PumpOnce(), 1);
  ASSERT_EQ(backend.deadlines.size(), 1u);
  // Must stay a *deadline* (positive) — 0 would disable the ladder.
  EXPECT_GT(backend.deadlines[0], 0.0);
  EXPECT_LE(backend.deadlines[0], 1.0);
}

TEST(BatcherPolicyTest, QueueFullRejectsTyped) {
  FakeClock clock;
  StubBackend backend;
  BatcherConfig config = ManualConfig(&clock);
  config.queue_capacity = 2;
  DynamicBatcher batcher(backend.fn(), config);
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0, ignore).ok());
  ASSERT_TRUE(batcher.Submit(MakeOdt(1), 0, ignore).ok());
  Status rejected = batcher.Submit(MakeOdt(2), 0, ignore);
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected;
  EXPECT_EQ(batcher.stats().rejected_full, 1);
  EXPECT_EQ(batcher.queue_depth(), 2);
  // Draining the queue reopens admission.
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 2);
  EXPECT_TRUE(batcher.Submit(MakeOdt(2), 0, ignore).ok());
}

TEST(BatcherPolicyTest, StaleQueueHeadRejectsNewArrivals) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  for (int i = 0; i < 4; ++i) {  // a full wave (max_batch) queued
    ASSERT_TRUE(batcher.Submit(MakeOdt(i), 0, ignore).ok());
  }
  clock.ms += 51.0;  // past queue_budget_ms: the backend is clearly behind
  Status rejected = batcher.Submit(MakeOdt(4), 0, ignore);
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected;
  EXPECT_EQ(batcher.stats().rejected_stale, 1);
  // The queued requests themselves are still answered.
  EXPECT_EQ(batcher.PumpOnce(), 4);
  EXPECT_EQ(batcher.stats().completed, 4);
}

TEST(BatcherPolicyTest, ArrivalThatFitsTheNextWaveIsAdmittedBehindAStaleHead) {
  // A short age-flushed wave can leave a request queued while the backend
  // runs it; by the time the other callers re-submit, that request is past
  // the budget. The re-submissions still fit in the next wave, so they are
  // not behind and must not be shed.
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  auto ignore = [](const Result<DotEstimate>&) {};
  ASSERT_TRUE(batcher.Submit(MakeOdt(0), 0, ignore).ok());
  clock.ms += 51.0;  // the lone queued request is now stale
  Status admitted = batcher.Submit(MakeOdt(1), 0, ignore);
  EXPECT_TRUE(admitted.ok()) << admitted;
  EXPECT_EQ(batcher.stats().rejected_stale, 0);
  EXPECT_EQ(batcher.PumpOnce(), 2);
  EXPECT_EQ(batcher.stats().completed, 2);
}

TEST(BatcherPolicyTest, ShutdownDrainsEverythingThenRefuses) {
  FakeClock clock;
  StubBackend backend;
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  int done = 0;
  for (int i = 0; i < 6; ++i) {  // 1.5 waves worth
    ASSERT_TRUE(batcher
                    .Submit(MakeOdt(i), 0,
                            [&](const Result<DotEstimate>& r) {
                              EXPECT_TRUE(r.ok());
                              ++done;
                            })
                    .ok());
  }
  batcher.Shutdown();
  EXPECT_EQ(done, 6);  // every admitted request answered before return
  EXPECT_EQ(batcher.queue_depth(), 0);
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.completed, 6);
  EXPECT_GE(stats.drain_flushes, 1);
  Status after = batcher.Submit(MakeOdt(9), 0, [](const Result<DotEstimate>&) {});
  EXPECT_TRUE(after.IsFailedPrecondition()) << after;
}

TEST(BatcherPolicyTest, BackendErrorReachesEveryCallback) {
  FakeClock clock;
  StubBackend backend;
  backend.fail_with = Status::Internal("wave exploded");
  DynamicBatcher batcher(backend.fn(), ManualConfig(&clock));
  int errors = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher
                    .Submit(MakeOdt(i), 0,
                            [&](const Result<DotEstimate>& r) {
                              EXPECT_TRUE(r.status().IsInternal());
                              ++errors;
                            })
                    .ok());
  }
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 3);
  EXPECT_EQ(errors, 3);
}

TEST(BatcherPolicyTest, RealThreadFlushesOnAgeWithoutPumping) {
  // Sanity-check the background thread variant end to end: the wall-clock
  // age trigger must flush a lone request without any explicit pump.
  StubBackend backend;
  BatcherConfig config;
  config.max_batch = 64;        // size trigger unreachable
  config.max_wave_age_ms = 2.0;
  DynamicBatcher batcher(backend.fn(), config);
  std::mutex mu;
  std::condition_variable cv;
  bool answered = false;
  ASSERT_TRUE(batcher
                  .Submit(MakeOdt(0), 0,
                          [&](const Result<DotEstimate>& r) {
                            EXPECT_TRUE(r.ok());
                            std::lock_guard<std::mutex> lock(mu);
                            answered = true;
                            cv.notify_all();
                          })
                  .ok());
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return answered; }));
  EXPECT_GE(batcher.stats().age_flushes, 1);
}

// --- End-to-end equivalence against a real trained oracle ----------------

class BatcherOracleFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig cc = CityConfig::ChengduLike();
    cc.grid_nodes = 8;
    cc.spacing_meters = 1300;
    city_ = new City(cc, 4);
    TripConfig tc = TripConfig::ChengduLike();
    tc.num_trips = 200;
    dataset_ = new BenchmarkDataset(BuildDataset(*city_, tc, 17, "batcher"));
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
    DotOracle trained(*config_, *grid_);
    ASSERT_TRUE(trained.TrainStage1(dataset_->split.train).ok());
    ASSERT_TRUE(
        trained.TrainStage2(dataset_->split.train, dataset_->split.val).ok());
    checkpoint_ = ::testing::TempDir() + "/serve_batching_oracle.bin";
    ASSERT_TRUE(trained.SaveFile(checkpoint_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(checkpoint_.c_str());
    delete config_;
    delete grid_;
    delete dataset_;
    delete city_;
    config_ = nullptr;
    grid_ = nullptr;
    dataset_ = nullptr;
    city_ = nullptr;
  }

  /// Fresh oracle clone with seed-state sampling RNG (the precondition for
  /// bitwise comparisons across service instances).
  static std::unique_ptr<DotOracle> NewClone() {
    auto oracle = std::make_unique<DotOracle>(*config_, *grid_);
    EXPECT_TRUE(oracle->LoadFile(checkpoint_).ok());
    return oracle;
  }

  static const OdtInput& TestOdt(size_t i) {
    return dataset_->split.test[i].odt;
  }

  static City* city_;
  static BenchmarkDataset* dataset_;
  static Grid* grid_;
  static DotConfig* config_;
  static std::string checkpoint_;
};

City* BatcherOracleFixture::city_ = nullptr;
BenchmarkDataset* BatcherOracleFixture::dataset_ = nullptr;
Grid* BatcherOracleFixture::grid_ = nullptr;
DotConfig* BatcherOracleFixture::config_ = nullptr;
std::string BatcherOracleFixture::checkpoint_;

TEST_F(BatcherOracleFixture, BatchedAnswersAreBitwiseEqualToDirectQueryBatch) {
  auto batcher_oracle = NewClone();
  auto direct_oracle = NewClone();
  OracleService batcher_service(batcher_oracle.get());
  OracleService direct_service(direct_oracle.get());

  std::vector<OdtInput> wave = {TestOdt(0), TestOdt(1), TestOdt(2),
                                TestOdt(3)};

  FakeClock clock;
  BatcherConfig config = ManualConfig(&clock);
  config.max_batch = static_cast<int64_t>(wave.size());
  DynamicBatcher batcher(OracleBackend(&batcher_service), config);
  std::vector<double> batched(wave.size(), -1);
  for (size_t i = 0; i < wave.size(); ++i) {
    ASSERT_TRUE(batcher
                    .Submit(wave[i], 0,
                            [&batched, i](const Result<DotEstimate>& r) {
                              ASSERT_TRUE(r.ok()) << r.status();
                              batched[i] = r->minutes;
                            })
                    .ok());
  }
  EXPECT_EQ(batcher.PumpOnce(), static_cast<int64_t>(wave.size()));

  // The batcher preserved FIFO composition, so the direct QueryBatch on an
  // identical clone must produce bitwise-identical minutes.
  Result<std::vector<DotEstimate>> direct = direct_service.QueryBatch(wave);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct->size(), wave.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(batched[i], (*direct)[i].minutes) << "query " << i;
  }
  EXPECT_EQ(batcher_service.stats().queries, direct_service.stats().queries);
}

TEST_F(BatcherOracleFixture, TwoAgeFlushedWavesMatchTwoDirectBatches) {
  auto batcher_oracle = NewClone();
  auto direct_oracle = NewClone();
  OracleService batcher_service(batcher_oracle.get());
  OracleService direct_service(direct_oracle.get());

  FakeClock clock;
  DynamicBatcher batcher(OracleBackend(&batcher_service),
                         ManualConfig(&clock));
  std::vector<double> batched;
  auto record = [&batched](const Result<DotEstimate>& r) {
    ASSERT_TRUE(r.ok()) << r.status();
    batched.push_back(r->minutes);
  };
  // Two arrivals, age-flushed as one wave; then one more, flushed alone.
  ASSERT_TRUE(batcher.Submit(TestOdt(0), 0, record).ok());
  ASSERT_TRUE(batcher.Submit(TestOdt(1), 0, record).ok());
  clock.ms += 11.0;
  EXPECT_EQ(batcher.PumpOnce(), 2);
  ASSERT_TRUE(batcher.Submit(TestOdt(2), 0, record).ok());
  clock.ms += 11.0;
  EXPECT_EQ(batcher.PumpOnce(), 1);

  Result<std::vector<DotEstimate>> first =
      direct_service.QueryBatch({TestOdt(0), TestOdt(1)});
  Result<std::vector<DotEstimate>> second =
      direct_service.QueryBatch({TestOdt(2)});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(batched.size(), 3u);
  EXPECT_EQ(batched[0], (*first)[0].minutes);
  EXPECT_EQ(batched[1], (*first)[1].minutes);
  EXPECT_EQ(batched[2], (*second)[0].minutes);
}

}  // namespace
}  // namespace serve
}  // namespace dot
