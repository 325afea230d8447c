// The batcher's end-to-end bitwise-equivalence certificate: answers served
// through the batcher must equal direct QueryBatch calls on identical
// oracle state, so the front-end adds concurrency, not noise. The fixture
// trains a small oracle; the model-free policy cases live in
// serve_batcher_test.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "batcher_test_util.h"
#include "core/oracle_service.h"
#include "serve/batcher.h"

namespace dot {
namespace serve {
namespace {

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
    // Per process: ctest runs each case of the suite in its own process,
    // and concurrent set-ups must not write or delete one shared file.
    checkpoint_ = ::testing::TempDir() + "/serve_batching_oracle_" +
                  std::to_string(::getpid()) + ".bin";
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

TEST_F(BatcherOracleFixture, MalformedQueryIsRejectedAtAdmissionNotInItsWave) {
  auto batcher_oracle = NewClone();
  auto direct_oracle = NewClone();
  OracleService batcher_service(batcher_oracle.get());
  OracleService direct_service(direct_oracle.get());

  FakeClock clock;
  DynamicBatcher batcher(OracleBackend(&batcher_service),
                         ManualConfig(&clock));
  std::vector<OdtInput> valid = {TestOdt(0), TestOdt(1), TestOdt(2)};
  std::vector<double> batched(valid.size(), -1);
  auto submit_valid = [&](size_t i) {
    return batcher.Submit(valid[i], 0,
                          [&batched, i](const Result<DotEstimate>& r) {
                            ASSERT_TRUE(r.ok()) << r.status();
                            batched[i] = r->minutes;
                          });
  };
  OdtInput nan_origin = TestOdt(3);
  nan_origin.origin.lng = std::nan("");
  ASSERT_TRUE(submit_valid(0).ok());
  ASSERT_TRUE(submit_valid(1).ok());
  Status rejected =
      batcher.Submit(nan_origin, 0, [](const Result<DotEstimate>&) {
        ADD_FAILURE() << "a rejected query must get no callback";
      });
  EXPECT_TRUE(rejected.IsInvalidArgument()) << rejected;
  ASSERT_TRUE(submit_valid(2).ok());
  EXPECT_EQ(batcher.stats().submitted, 3);

  // The wave holds only the valid queries, so it answers each of them
  // exactly as a direct QueryBatch of the same three does.
  EXPECT_EQ(batcher.PumpOnce(/*force=*/true), 3);
  Result<std::vector<DotEstimate>> direct = direct_service.QueryBatch(valid);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(direct->size(), valid.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    EXPECT_EQ(batched[i], (*direct)[i].minutes) << "query " << i;
  }
}

}  // namespace
}  // namespace serve
}  // namespace dot
