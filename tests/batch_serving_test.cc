// Batch-vs-single equivalence tests for the batched serving path: a wave
// answered by EstimateBatch / QueryBatch must be bitwise identical to the
// same queries issued sequentially against identical oracle state (the
// samplers fork one noise stream per query, in query order), so batching
// is purely a throughput optimization.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle_service.h"

namespace dot {
namespace {

// Exercise the parallel conv/GEMM partitioning even on single-core boxes;
// the kernels are deterministic for any thread count, which is exactly what
// these equivalence tests certify end to end.
const bool kForceThreads = [] {
  setenv("DOT_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

class BatchServingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig cc = CityConfig::ChengduLike();
    cc.grid_nodes = 8;
    cc.spacing_meters = 1300;
    city_ = new City(cc, 4);
    TripConfig tc = TripConfig::ChengduLike();
    tc.num_trips = 200;
    dataset_ = new BenchmarkDataset(BuildDataset(*city_, tc, 17, "batch"));
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
    checkpoint_ = ::testing::TempDir() + "/batch_serving_oracle_" +
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

  /// A trained oracle with a *fresh* sampling RNG: loading the checkpoint
  /// into a newly constructed oracle leaves rng_ at its seed state, so two
  /// clones start bitwise identical — the precondition for comparing a
  /// batched call on one against sequential calls on the other.
  static std::unique_ptr<DotOracle> NewClone() {
    auto oracle = std::make_unique<DotOracle>(*config_, *grid_);
    EXPECT_TRUE(oracle->LoadFile(checkpoint_).ok());
    return oracle;
  }

  static const OdtInput& TestOdt(size_t i) {
    return dataset_->split.test[i].odt;
  }

  static void ExpectSamePit(const Pit& a, const Pit& b, size_t query) {
    ASSERT_EQ(a.tensor().numel(), b.tensor().numel());
    for (int64_t j = 0; j < a.tensor().numel(); ++j) {
      ASSERT_EQ(a.tensor().at(j), b.tensor().at(j))
          << "query " << query << " pit element " << j;
    }
  }

  static City* city_;
  static BenchmarkDataset* dataset_;
  static Grid* grid_;
  static DotConfig* config_;
  static std::string checkpoint_;
};

City* BatchServingFixture::city_ = nullptr;
BenchmarkDataset* BatchServingFixture::dataset_ = nullptr;
Grid* BatchServingFixture::grid_ = nullptr;
DotConfig* BatchServingFixture::config_ = nullptr;
std::string BatchServingFixture::checkpoint_;

TEST_F(BatchServingFixture, EstimateBatchMatchesSequentialEstimates) {
  auto batched_oracle = NewClone();
  auto single_oracle = NewClone();
  std::vector<OdtInput> odts = {TestOdt(0), TestOdt(1), TestOdt(2)};
  Result<std::vector<DotEstimate>> batched = batched_oracle->EstimateBatch(odts);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), odts.size());
  for (size_t i = 0; i < odts.size(); ++i) {
    Result<DotEstimate> single = single_oracle->Estimate(odts[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ((*batched)[i].minutes, single->minutes) << "query " << i;
    ExpectSamePit((*batched)[i].pit, single->pit, i);
  }
}

TEST_F(BatchServingFixture, EstimateBatchOfOneMatchesEstimate) {
  auto a = NewClone();
  auto b = NewClone();
  Result<std::vector<DotEstimate>> batch = a->EstimateBatch({TestOdt(3)});
  Result<DotEstimate> single = b->Estimate(TestOdt(3));
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_DOUBLE_EQ((*batch)[0].minutes, single->minutes);
  ExpectSamePit((*batch)[0].pit, single->pit, 0);
}

TEST_F(BatchServingFixture, EstimateBatchEmptyInputReturnsEmpty) {
  auto oracle = NewClone();
  Result<std::vector<DotEstimate>> r = oracle->EstimateBatch({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(BatchServingFixture, UntrainedOracleFailsPrecondition) {
  DotOracle untrained(*config_, *grid_);
  EXPECT_FALSE(untrained.trained());
  EXPECT_FALSE(untrained.EstimateBatch({TestOdt(0)}).ok());
  OracleService service(&untrained);
  EXPECT_FALSE(service.Query(TestOdt(0)).ok());
  EXPECT_FALSE(service.QueryBatch({TestOdt(0)}).ok());
}

TEST_F(BatchServingFixture, QueryBatchMatchesSequentialQueriesOnColdCache) {
  auto batched_oracle = NewClone();
  auto single_oracle = NewClone();
  OracleService batched_service(batched_oracle.get());
  OracleService single_service(single_oracle.get());
  // Includes a later duplicate of query 1's bucket: sequentially it is a
  // cache hit, batched it reuses the wave's single miss-fill — same PiT
  // either way.
  OdtInput dup = TestOdt(1);
  dup.departure_time += 30;
  std::vector<OdtInput> wave = {TestOdt(0), TestOdt(1), TestOdt(2), dup};
  Result<std::vector<DotEstimate>> batched = batched_service.QueryBatch(wave);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), wave.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    Result<DotEstimate> single = single_service.Query(wave[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ((*batched)[i].minutes, single->minutes) << "query " << i;
    ExpectSamePit((*batched)[i].pit, single->pit, i);
  }
  EXPECT_EQ(batched_service.stats().queries, single_service.stats().queries);
  // Sequentially the duplicate is a warm cache hit; batched it rides along
  // on the wave's single miss-fill and is accounted as a dedup hit. Either
  // way exactly one query skipped stage-1 sampling.
  EXPECT_EQ(single_service.stats().cache_hits, 1);
  EXPECT_EQ(batched_service.stats().cache_hits, 0);
  EXPECT_EQ(batched_service.stats().dedup_hits, 1);
  EXPECT_DOUBLE_EQ(batched_service.stats().hit_rate(),
                   single_service.stats().hit_rate());
}

TEST_F(BatchServingFixture, QueryBatchPartitionsHitsAndMisses) {
  auto oracle = NewClone();
  OracleService service(oracle.get());
  ASSERT_TRUE(service.Query(TestOdt(0)).ok());  // pre-fill one bucket
  OdtInput dup = TestOdt(1);
  dup.departure_time += 30;  // same bucket as TestOdt(1)
  Result<std::vector<DotEstimate>> r =
      service.QueryBatch({TestOdt(0), TestOdt(1), TestOdt(2), dup});
  ASSERT_TRUE(r.ok());
  OracleServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 5);        // 1 single + 4 batch members
  EXPECT_EQ(stats.batch_queries, 1);
  // The pre-filled bucket is a cache hit, the in-wave duplicate is a dedup
  // hit on the wave's miss-fill, and the two new buckets are batched misses.
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.dedup_hits, 1);
  EXPECT_EQ(stats.cache_misses, 3);  // the pre-fill miss + the two new buckets
  EXPECT_EQ(service.cache_size(), 3);
}

TEST_F(BatchServingFixture, RepeatedQueryBatchIsFullyCached) {
  auto oracle = NewClone();
  OracleService service(oracle.get());
  std::vector<OdtInput> wave = {TestOdt(0), TestOdt(1), TestOdt(2)};
  Result<std::vector<DotEstimate>> first = service.QueryBatch(wave);
  ASSERT_TRUE(first.ok());
  Result<std::vector<DotEstimate>> second = service.QueryBatch(wave);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service.stats().cache_hits, 3);
  for (size_t i = 0; i < wave.size(); ++i) {
    // The cached PiT feeds the same stage-2 estimator: identical answers.
    EXPECT_DOUBLE_EQ((*first)[i].minutes, (*second)[i].minutes);
  }
}

}  // namespace
}  // namespace dot
