// Continual adaptation loop (DESIGN.md §5k): FineTune's replay-mix
// fine-tuning with its report plumbing, and the full incident ->
// fine-tune -> re-seal -> hot-swap round against a live shard fleet under
// query load.

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/shard.h"
#include "serve/adapt.h"
#include "serve/demo.h"
#include "serve/router.h"
#include "sim/incidents.h"

namespace dot {
namespace {

class AdaptationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig cc = serve::DemoCityConfig();
    city_ = new City(cc, serve::kDemoCitySeed);
    TripConfig tc = serve::DemoTripConfig();
    tc.num_trips = 600;
    trip_config_ = new TripConfig(tc);
    dataset_ = new BenchmarkDataset(
        BuildDataset(*city_, tc, serve::kDemoDataSeed, "adapt"));
    DotConfig cfg = serve::DemoDotConfig();
    cfg.stage1_epochs = 2;
    cfg.stage2_epochs = 2;
    cfg.stage2_inferred_fraction = 0.5;
    grid_ = new Grid(dataset_->MakeGrid(cfg.grid_size).ValueOrDie());
    oracle_ = new DotOracle(cfg, *grid_);
    ASSERT_TRUE(oracle_->TrainStage1(dataset_->split.train).ok());
    ASSERT_TRUE(
        oracle_->TrainStage2(dataset_->split.train, dataset_->split.val).ok());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete grid_;
    delete dataset_;
    delete trip_config_;
    delete city_;
    oracle_ = nullptr;
    grid_ = nullptr;
    dataset_ = nullptr;
    trip_config_ = nullptr;
    city_ = nullptr;
  }

  static City* city_;
  static TripConfig* trip_config_;
  static BenchmarkDataset* dataset_;
  static Grid* grid_;
  static DotOracle* oracle_;
};

City* AdaptationFixture::city_ = nullptr;
TripConfig* AdaptationFixture::trip_config_ = nullptr;
BenchmarkDataset* AdaptationFixture::dataset_ = nullptr;
Grid* AdaptationFixture::grid_ = nullptr;
DotOracle* AdaptationFixture::oracle_ = nullptr;

TEST_F(AdaptationFixture, FineTuneGuardsItsPreconditions) {
  DotConfig cfg = serve::DemoDotConfig();
  DotOracle untrained(cfg, *grid_);
  FineTuneConfig ft;
  EXPECT_TRUE(untrained.FineTune(dataset_->split.val, {}, ft)
                  .IsFailedPrecondition());
  EXPECT_TRUE(oracle_->FineTune({}, dataset_->split.train, ft)
                  .IsInvalidArgument());
}

TEST_F(AdaptationFixture, FineTuneHotSwapChaosUnderLoad) {
  // Seal the clear-day model; a 2-shard fleet serves from it while one
  // adaptation round fine-tunes, re-seals, and hot-swaps the fleet.
  std::string checkpoint =
      "/tmp/dot_adaptation_test_" + std::to_string(::getpid()) + ".ckpt";
  ASSERT_TRUE(oracle_->SaveFile(checkpoint).ok());

  ModelFactory factory = [&]() -> Result<std::unique_ptr<DotOracle>> {
    auto oracle =
        std::make_unique<DotOracle>(serve::DemoDotConfig(), *grid_);
    DOT_RETURN_NOT_OK(oracle->LoadFile(checkpoint));
    return oracle;
  };
  std::vector<std::unique_ptr<OracleShard>> shards;
  for (int s = 0; s < 2; ++s) {
    ShardConfig sc;
    sc.shard_id = std::to_string(s);
    Result<std::unique_ptr<OracleShard>> shard =
        OracleShard::Create(factory, std::move(sc));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    shards.push_back(std::move(*shard));
  }
  serve::ShardRouter router(std::move(shards));
  int64_t version_before = 0;
  for (const auto& st : router.Statuses()) {
    version_before = std::max(version_before, st.model_version);
  }

  int64_t window_start =
      trip_config_->start_unix + trip_config_->num_days * 86400 + 7 * 3600;
  int64_t window_end = window_start + 12 * 3600;
  auto storm = std::make_shared<IncidentSchedule>(IncidentSchedule::Storm(
      *city_, window_start, window_end, serve::kDemoCitySeed));
  serve::AdaptConfig config;
  config.fresh_trips = 120;
  config.holdout_trips = 32;
  serve::AdaptationManager adapt(city_, grid_, dataset_->split.train,
                                 checkpoint, config);
  adapt.SetIncidents(storm, window_start, window_end);

  std::vector<OdtInput> load_odts;
  for (size_t i = 0; i < dataset_->split.test.size() && i < 32; ++i) {
    load_odts.push_back(dataset_->split.test[i].odt);
  }
  std::atomic<bool> stop{false};
  std::atomic<long long> errors{0}, queries{0};
  std::thread load([&] {
    QueryOptions opts;
    size_t at = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<OdtInput> wave;
      for (int i = 0; i < 4; ++i) wave.push_back(load_odts[at++ % load_odts.size()]);
      Result<std::vector<DotEstimate>> got = router.Route(wave, opts);
      if (!got.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
      } else {
        for (const auto& e : *got) {
          if (!std::isfinite(e.minutes)) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      queries.fetch_add(4, std::memory_order_relaxed);
    }
  });

  Result<serve::AdaptRound> round =
      adapt.RunRound([&router] { return router.SwapAll(); });
  stop.store(true);
  load.join();

  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_GT(round->fresh_samples, 0);
  EXPECT_GT(round->mae_before, 0);
  EXPECT_TRUE(round->improved);
  EXPECT_TRUE(round->published) << round->error;
  // Zero serving errors while the fine-tune + swap ran under load, and the
  // fleet version bumped mid-load.
  EXPECT_GT(queries.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  int64_t version_after = 0;
  for (const auto& st : router.Statuses()) {
    version_after = std::max(version_after, st.model_version);
  }
  EXPECT_GT(version_after, version_before);
  EXPECT_EQ(adapt.rounds(), 1);
  // /adaptz JSON carries the round.
  EXPECT_NE(adapt.StatusJson().find("\"rounds\": 1"), std::string::npos);

  // The fine-tune report accumulated labeled per-stage epochs.
  ::unlink(checkpoint.c_str());
}

}  // namespace
}  // namespace dot
