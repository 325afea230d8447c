// Fault-tolerance tests (DESIGN.md §5d): the serving degradation ladder
// under injected stage-1 failures and deadlines, bounded retry, checkpoint
// corruption rejection, and NaN-loss training rollback. Faults are
// injected through the failpoint framework (util/failpoint.h).

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle_service.h"
#include "util/checkpoint.h"
#include "util/failpoint.h"

namespace dot {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The stage-1 denoiser's parameter bytes, in registration order.
std::string DenoiserBytes(const DotOracle& oracle) {
  std::string out;
  for (const Tensor& t : oracle.denoiser().Parameters()) {
    out.append(reinterpret_cast<const char*>(t.data()),
               static_cast<size_t>(t.numel()) * sizeof(float));
  }
  return out;
}

class RobustnessFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig cc = CityConfig::ChengduLike();
    cc.grid_nodes = 8;
    cc.spacing_meters = 1300;
    city_ = new City(cc, 4);
    TripConfig tc = TripConfig::ChengduLike();
    tc.num_trips = 300;
    dataset_ = new BenchmarkDataset(BuildDataset(*city_, tc, 17, "robust"));
    grid_ = new Grid(dataset_->MakeGrid(8).ValueOrDie());
    DotConfig cfg;
    cfg.grid_size = 8;
    cfg.diffusion_steps = 30;
    cfg.sample_steps = 6;
    cfg.unet.base_channels = 8;
    cfg.unet.levels = 2;
    cfg.unet.cond_dim = 32;
    cfg.estimator.embed_dim = 32;
    cfg.estimator.layers = 1;
    cfg.stage1_epochs = 1;
    cfg.stage2_epochs = 2;
    cfg.val_samples = 0;
    cfg.stage2_inferred_fraction = 0.0;  // cheap per-process fixture setup
    cfg_ = new DotConfig(cfg);
    oracle_ = new DotOracle(cfg, *grid_);
    ASSERT_TRUE(oracle_->TrainStage1(dataset_->split.train).ok());
    ASSERT_TRUE(
        oracle_->TrainStage2(dataset_->split.train, dataset_->split.val).ok());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete cfg_;
    delete grid_;
    delete dataset_;
    delete city_;
    oracle_ = nullptr;
    cfg_ = nullptr;
    grid_ = nullptr;
    dataset_ = nullptr;
    city_ = nullptr;
  }
  // Never leak an armed failpoint into the next test.
  void TearDown() override { fail::DisarmAll(); }

  /// A service config that keeps failure-path tests fast: no backoff
  /// sleeps, a single retry.
  static OracleServiceConfig FastRetryConfig() {
    OracleServiceConfig cfg;
    cfg.max_retries = 1;
    cfg.retry_backoff_ms = 0;
    return cfg;
  }

  static int64_t CounterValue(const std::string& name) {
    return obs::MetricsRegistry::Get().GetCounter(name)->Value();
  }

  /// Per-stage training counter (`name{stage="..."}`, DESIGN.md §5k).
  static int64_t StageCounterValue(const std::string& name,
                                   const std::string& stage) {
    return obs::MetricsRegistry::Get()
        .GetCounter(name, {{"stage", stage}})
        ->Value();
  }

  static City* city_;
  static BenchmarkDataset* dataset_;
  static Grid* grid_;
  static DotConfig* cfg_;
  static DotOracle* oracle_;
};

City* RobustnessFixture::city_ = nullptr;
BenchmarkDataset* RobustnessFixture::dataset_ = nullptr;
Grid* RobustnessFixture::grid_ = nullptr;
DotConfig* RobustnessFixture::cfg_ = nullptr;
DotOracle* RobustnessFixture::oracle_ = nullptr;

// ---- Degradation ladder under injected stage-1 failure ---------------------

TEST_F(RobustnessFixture, Stage1FailureDegradesBatchWithoutWaveError) {
  OracleService service(oracle_, FastRetryConfig());
  fail::Arm("dot_oracle.infer_pits", fail::Action::kError);  // unlimited
  std::vector<OdtInput> wave;
  for (int i = 0; i < 6; ++i) wave.push_back(dataset_->split.test[i].odt);
  Result<std::vector<DotEstimate>> r = service.QueryBatch(wave);
  // The acceptance bar: a stage-1 outage never fails the wave — every
  // query gets an estimate, tagged below full quality.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), wave.size());
  for (const DotEstimate& e : *r) {
    EXPECT_NE(e.quality, ServedQuality::kFull);
    EXPECT_TRUE(std::isfinite(e.minutes));
    EXPECT_GT(e.minutes, 0.0);
  }
}

TEST_F(RobustnessFixture, NanSamplerOutputDegradesInsteadOfServingGarbage) {
  OracleServiceConfig cfg = FastRetryConfig();
  cfg.max_retries = 0;
  OracleService service(oracle_, cfg);
  fail::Arm("diffusion.sample", fail::Action::kNan);
  Result<DotEstimate> r = service.Query(dataset_->split.test[0].odt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The non-finite PiT was detected before stage 2 ever saw it.
  EXPECT_EQ(r->quality, ServedQuality::kFallback);
  EXPECT_TRUE(std::isfinite(r->minutes));
}

TEST_F(RobustnessFixture, TransientFailureIsRetriedToFullQuality) {
  OracleService service(oracle_, FastRetryConfig());
  int64_t retries_before = CounterValue("dot_serving_retries_total");
  fail::Arm("dot_oracle.infer_pits", fail::Action::kError, /*count=*/1);
  Result<DotEstimate> r = service.Query(dataset_->split.test[1].odt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->quality, ServedQuality::kFull);
  EXPECT_EQ(CounterValue("dot_serving_retries_total"), retries_before + 1);
}

TEST_F(RobustnessFixture, RetryExhaustionFallsToPriorMean) {
  OracleService service(oracle_, FastRetryConfig());
  int64_t retries_before = CounterValue("dot_serving_retries_total");
  fail::Arm("dot_oracle.infer_pits", fail::Action::kError);  // unlimited
  Result<DotEstimate> r = service.Query(dataset_->split.test[2].odt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->quality, ServedQuality::kFallback);
  EXPECT_DOUBLE_EQ(r->minutes, oracle_->prior_mean_minutes());
  // One retry at full quality, one at reduced: both ladder levels got
  // their bounded retry budget before the estimate of last resort.
  EXPECT_EQ(CounterValue("dot_serving_retries_total"), retries_before + 2);
}

TEST_F(RobustnessFixture, NeighborBucketServesWhenStage1IsDown) {
  OracleServiceConfig cfg = FastRetryConfig();
  cfg.max_retries = 0;
  OracleService service(oracle_, cfg);
  OdtInput odt = dataset_->split.test[4].odt;
  // Warm this OD pair's bucket at full quality...
  Result<DotEstimate> warm = service.Query(odt);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->quality, ServedQuality::kFull);
  // ...then kill stage 1 and ask for the *next* 30-minute slot.
  fail::Arm("dot_oracle.infer_pits", fail::Action::kError);
  OdtInput shifted = odt;
  shifted.departure_time += 86400 / kTodSlots;
  Result<DotEstimate> r = service.Query(shifted);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->quality, ServedQuality::kCachedNeighbor);
  // The borrowed PiT is the warmed bucket's: same travel-time estimate as
  // re-scoring the cached PiT (modulo the shifted departure features).
  EXPECT_TRUE(std::isfinite(r->minutes));
}

TEST_F(RobustnessFixture, DegradedAnswersAreNeverCached) {
  OracleServiceConfig cfg = FastRetryConfig();
  cfg.max_retries = 0;
  OracleService service(oracle_, cfg);
  fail::Arm("dot_oracle.infer_pits", fail::Action::kError);
  ASSERT_TRUE(service.Query(dataset_->split.test[5].odt).ok());
  EXPECT_EQ(service.cache_size(), 0);
  fail::DisarmAll();
  // Healthy again: the same query now pays the miss and caches.
  Result<DotEstimate> r = service.Query(dataset_->split.test[5].odt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->quality, ServedQuality::kFull);
  EXPECT_EQ(service.cache_size(), 1);
}

TEST_F(RobustnessFixture, TinyDeadlineDegradesInsteadOfRunningLate) {
  OracleService service(oracle_);
  // Populate the stage-1 latency histogram the triage predicts from.
  ASSERT_TRUE(service.Query(dataset_->split.test[6].odt).ok());
  service.ClearCache();
  QueryOptions opts;
  opts.deadline_ms = 1e-3;  // 1us: not even a reduced pass can fit
  Result<DotEstimate> r = service.Query(dataset_->split.test[6].odt, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->quality, ServedQuality::kFallback);
  EXPECT_TRUE(std::isfinite(r->minutes));
  EXPECT_GE(obs::MetricsRegistry::Get()
                .GetCounter("dot_serving_degraded_total",
                            {{"level", "fallback"}})
                ->Value(),
            1);
}

TEST_F(RobustnessFixture, FailpointEnvSpecDrivesTheLadder) {
  // The same arming path DOT_FAILPOINTS uses (parsed spec), end to end.
  // One error fire: the full-quality attempt fails, the reduced-steps
  // attempt finds the failpoint exhausted and succeeds.
  ASSERT_TRUE(fail::ArmFromSpec("dot_oracle.infer_pits=error:1").ok());
  OracleServiceConfig cfg = FastRetryConfig();
  cfg.max_retries = 0;
  OracleService service(oracle_, cfg);
  std::vector<OdtInput> wave = {dataset_->split.test[7].odt,
                                dataset_->split.test[8].odt};
  // First wave: full fails, reduced-steps succeeds (count exhausted).
  Result<std::vector<DotEstimate>> r = service.QueryBatch(wave);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const DotEstimate& e : *r) {
    EXPECT_EQ(e.quality, ServedQuality::kReducedSteps);
  }
  // Second wave: failpoint spent, back to full quality.
  service.ClearCache();
  r = service.QueryBatch(wave);
  ASSERT_TRUE(r.ok());
  for (const DotEstimate& e : *r) EXPECT_EQ(e.quality, ServedQuality::kFull);
}

// ---- Input validation at the service boundary ------------------------------

TEST_F(RobustnessFixture, OutOfAreaAndBadTimeQueriesAreRejected) {
  OracleService service(oracle_);
  OdtInput good = dataset_->split.test[0].odt;

  OdtInput far = good;
  far.origin.lng = grid_->box().max_lng + 1.0;
  EXPECT_TRUE(service.Query(far).status().IsInvalidArgument());

  OdtInput nan_dest = good;
  nan_dest.destination.lat = std::nan("");
  EXPECT_TRUE(service.Query(nan_dest).status().IsInvalidArgument());

  OdtInput past = good;
  past.departure_time = -1;
  EXPECT_TRUE(service.Query(past).status().IsInvalidArgument());

  // The rejected singles were not counted.
  EXPECT_EQ(service.stats().queries, 0);

  // In a batch, the bad member gets its own error and the good one is
  // served; only the good one is counted and cached.
  Result<std::vector<DotEstimate>> r = service.QueryBatch({good, far});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_TRUE((*r)[0].status.ok()) << (*r)[0].status.ToString();
  EXPECT_TRUE(std::isfinite((*r)[0].minutes));
  EXPECT_TRUE((*r)[1].status.IsInvalidArgument());
  EXPECT_NE((*r)[1].status.message().find("origin outside the service area"),
            std::string::npos)
      << (*r)[1].status.ToString();
  EXPECT_EQ(service.stats().queries, 1);
  EXPECT_EQ(service.cache_size(), 1);
}

// ---- Checkpoint corruption -------------------------------------------------

TEST_F(RobustnessFixture, CorruptAndTruncatedCheckpointsAreRejected) {
  std::string path = ::testing::TempDir() + "/robust_oracle.bin";
  ASSERT_TRUE(oracle_->SaveFile(path).ok());

  {  // Intact file loads into a fresh oracle.
    DotOracle fresh(*cfg_, *grid_);
    ASSERT_TRUE(fresh.LoadFile(path).ok());
    EXPECT_TRUE(fresh.trained());
  }

  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 40u);

  {  // One flipped payload byte: rejected by the CRC footer.
    std::string bad = bytes;
    bad[bad.size() / 2] ^= 0x01;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
    DotOracle fresh(*cfg_, *grid_);
    Status s = fresh.LoadFile(path);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("checksum"), std::string::npos);
    EXPECT_FALSE(fresh.trained());
  }

  {  // Truncated tail: rejected before any weight is parsed.
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() / 3);
    DotOracle fresh(*cfg_, *grid_);
    EXPECT_FALSE(fresh.LoadFile(path).ok());
    EXPECT_FALSE(fresh.trained());
  }

  {  // Wrong container kind: a sealed file under another magic.
    CheckpointWriter w(path, "NOTDOT", /*version=*/1);
    ASSERT_TRUE(w.Ok());
    w.writer()->WriteF64(1.0);
    ASSERT_TRUE(w.Commit().ok());
    DotOracle fresh(*cfg_, *grid_);
    Status s = fresh.LoadFile(path);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("magic"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(RobustnessFixture, TornWriteFailpointIsCaughtAtLoadTime) {
  std::string path = ::testing::TempDir() + "/robust_torn.bin";
  // The failpoint publishes a half-written file while reporting success —
  // the crash-between-write-and-fsync scenario.
  fail::Arm("checkpoint.commit", fail::Action::kTruncate, /*count=*/1);
  ASSERT_TRUE(oracle_->SaveFile(path).ok());
  DotOracle fresh(*cfg_, *grid_);
  EXPECT_FALSE(fresh.LoadFile(path).ok());
  EXPECT_FALSE(fresh.trained());
  std::remove(path.c_str());
}

TEST_F(RobustnessFixture, LoadFailpointInjectsIoError) {
  std::string path = ::testing::TempDir() + "/robust_load_fp.bin";
  ASSERT_TRUE(oracle_->SaveFile(path).ok());
  fail::Arm("dot_oracle.load", fail::Action::kError, /*count=*/1);
  DotOracle fresh(*cfg_, *grid_);
  EXPECT_TRUE(fresh.LoadFile(path).IsIOError());
  // The failpoint was consumed; the retry loads fine.
  EXPECT_TRUE(fresh.LoadFile(path).ok());
  std::remove(path.c_str());
}

// ---- Training hardening ----------------------------------------------------

TEST_F(RobustnessFixture, NanLossRollsBackToLastGoodWeights) {
  DotOracle oracle(*cfg_, *grid_);
  ASSERT_TRUE(oracle.TrainStage1(dataset_->split.train).ok());
  std::string before = DenoiserBytes(oracle);

  int64_t rollbacks_before =
      StageCounterValue("dot_train_rollbacks_total", "stage1");
  int64_t skipped_before =
      StageCounterValue("dot_train_skipped_steps_total", "stage1");
  fail::Arm("train.stage1.nan_loss", fail::Action::kNan);  // every step
  ASSERT_TRUE(oracle.TrainStage1(dataset_->split.train).ok());
  fail::DisarmAll();

  // Every poisoned step was skipped, the consecutive-bad budget tripped at
  // least one rollback, and the weights are exactly the last-good ones.
  EXPECT_GT(StageCounterValue("dot_train_rollbacks_total", "stage1"),
            rollbacks_before);
  EXPECT_GT(StageCounterValue("dot_train_skipped_steps_total", "stage1"),
            skipped_before);
  EXPECT_GT(oracle.stage1_report().rollbacks, 0);
  EXPECT_GT(oracle.stage1_report().skipped_steps, 0);
  EXPECT_EQ(oracle.stage1_report().steps, 0);
  EXPECT_EQ(DenoiserBytes(oracle), before);
}

TEST_F(RobustnessFixture, Stage2NanLossIsSkippedNotTrainedOn) {
  DotOracle oracle(*cfg_, *grid_);
  ASSERT_TRUE(oracle.TrainStage1(dataset_->split.train).ok());
  int64_t skipped_before =
      StageCounterValue("dot_train_skipped_steps_total", "stage2");
  fail::Arm("train.stage2.nan_loss", fail::Action::kNan);
  ASSERT_TRUE(
      oracle.TrainStage2(dataset_->split.train, dataset_->split.val).ok());
  fail::DisarmAll();
  EXPECT_GT(StageCounterValue("dot_train_skipped_steps_total", "stage2"),
            skipped_before);
  // The oracle still serves (stage-2 weights are the last-good ones).
  Result<DotEstimate> r = oracle.Estimate(dataset_->split.test[0].odt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::isfinite(r->minutes));
}

TEST_F(RobustnessFixture, GradientClippingBoundsTheStepNorm) {
  // Clipping must not break training; with a tiny clip norm the stage
  // still converges to *a* model and serves finite estimates.
  DotConfig cfg = *cfg_;
  cfg.grad_clip_norm = 0.5f;
  cfg.stage1_epochs = 1;
  DotOracle oracle(cfg, *grid_);
  ASSERT_TRUE(oracle.TrainStage1(dataset_->split.train).ok());
  ASSERT_TRUE(
      oracle.TrainStage2(dataset_->split.train, dataset_->split.val).ok());
  Result<DotEstimate> r = oracle.Estimate(dataset_->split.test[0].odt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::isfinite(r->minutes));
}

}  // namespace
}  // namespace dot
