// Tests for the OracleService caching layer.

#include "core/oracle_service.h"

#include <atomic>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "util/stopwatch.h"

namespace dot {
namespace {

class OracleServiceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig cc = CityConfig::ChengduLike();
    cc.grid_nodes = 8;
    cc.spacing_meters = 1300;
    city_ = new City(cc, 4);
    TripConfig tc = TripConfig::ChengduLike();
    tc.num_trips = 300;
    dataset_ = new BenchmarkDataset(BuildDataset(*city_, tc, 11, "svc"));
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
    oracle_ = new DotOracle(cfg, *grid_);
    ASSERT_TRUE(oracle_->TrainStage1(dataset_->split.train).ok());
    ASSERT_TRUE(
        oracle_->TrainStage2(dataset_->split.train, dataset_->split.val).ok());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete grid_;
    delete dataset_;
    delete city_;
    oracle_ = nullptr;
    grid_ = nullptr;
    dataset_ = nullptr;
    city_ = nullptr;
  }

  static City* city_;
  static BenchmarkDataset* dataset_;
  static Grid* grid_;
  static DotOracle* oracle_;
};

City* OracleServiceFixture::city_ = nullptr;
BenchmarkDataset* OracleServiceFixture::dataset_ = nullptr;
Grid* OracleServiceFixture::grid_ = nullptr;
DotOracle* OracleServiceFixture::oracle_ = nullptr;

TEST_F(OracleServiceFixture, RepeatQueryHitsCache) {
  OracleService service(oracle_);
  const OdtInput& odt = dataset_->split.test[0].odt;
  Result<DotEstimate> first = service.Query(odt);
  ASSERT_TRUE(first.ok());
  Result<DotEstimate> second = service.Query(odt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service.stats().queries, 2);
  EXPECT_EQ(service.stats().cache_hits, 1);
  // Cached estimate comes from the cached PiT — identical value.
  EXPECT_DOUBLE_EQ(first->minutes, second->minutes);
}

TEST_F(OracleServiceFixture, CacheHitIsMuchFaster) {
  OracleService service(oracle_);
  const OdtInput& odt = dataset_->split.test[1].odt;
  Stopwatch sw;
  ASSERT_TRUE(service.Query(odt).ok());
  double cold = sw.ElapsedSeconds();
  sw.Restart();
  ASSERT_TRUE(service.Query(odt).ok());
  double warm = sw.ElapsedSeconds();
  EXPECT_LT(warm, cold * 0.5);
}

TEST_F(OracleServiceFixture, NearbyQueriesShareBuckets) {
  OracleService service(oracle_);
  OdtInput a = dataset_->split.test[2].odt;
  OdtInput b = a;
  // A few meters and seconds away: same cells, same slot.
  b.origin.lng += 1e-5;
  b.departure_time += 30;
  ASSERT_TRUE(service.Query(a).ok());
  ASSERT_TRUE(service.Query(b).ok());
  EXPECT_EQ(service.stats().cache_hits, 1);
}

TEST_F(OracleServiceFixture, DifferentSlotsMissCache) {
  OracleService service(oracle_);
  OdtInput a = dataset_->split.test[3].odt;
  OdtInput b = a;
  b.departure_time += 6 * 3600;  // different slot
  ASSERT_TRUE(service.Query(a).ok());
  ASSERT_TRUE(service.Query(b).ok());
  EXPECT_EQ(service.stats().cache_hits, 0);
  EXPECT_EQ(service.cache_size(), 2);
}

TEST_F(OracleServiceFixture, QueryDegradedServesTheLadderWithoutStage1) {
  // The failover path of a quarantined shard: the exact bucket serves at
  // kFull, a neighbouring time-of-day bucket at kCachedNeighbor and
  // anything else at kFallback, without a stage-1 pass, a cache insert or
  // miss accounting.
  OracleService service(oracle_);
  OdtInput a = dataset_->split.test[4].odt;
  Result<std::vector<DotEstimate>> fill = service.QueryBatch({a});
  ASSERT_TRUE(fill.ok());
  ASSERT_EQ((*fill)[0].quality, ServedQuality::kFull);
  OdtInput next_slot = a;
  next_slot.departure_time += 86400 / OracleServiceConfig{}.tod_slots;
  OdtInput far_slot = a;
  far_slot.departure_time += 6 * 3600;  // no cached bucket within the radius

  obs::Histogram* stage1 = obs::MetricsRegistry::Get().GetHistogram(
      "dot_oracle_stage1_latency_us");
  int64_t stage1_before = stage1->Count();
  int64_t size_before = service.cache_size();
  OracleServiceStats before = service.stats();
  Result<std::vector<DotEstimate>> r =
      service.QueryDegraded({a, next_slot, far_slot, far_slot});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 4u);

  auto same_pit = [](const Pit& x, const Pit& y) {
    return x.tensor().numel() == y.tensor().numel() &&
           std::memcmp(x.tensor().data(), y.tensor().data(),
                       sizeof(float) * x.tensor().numel()) == 0;
  };
  const DotEstimate& filled = (*fill)[0];
  EXPECT_EQ((*r)[0].quality, ServedQuality::kFull);
  EXPECT_EQ(std::memcmp(&(*r)[0].minutes, &filled.minutes, sizeof(double)), 0);
  EXPECT_TRUE(same_pit((*r)[0].pit, filled.pit));
  EXPECT_EQ((*r)[1].quality, ServedQuality::kCachedNeighbor);
  EXPECT_TRUE(same_pit((*r)[1].pit, filled.pit));
  for (size_t i : {2, 3}) {
    EXPECT_EQ((*r)[i].quality, ServedQuality::kFallback) << "query " << i;
    EXPECT_EQ((*r)[i].minutes, oracle_->prior_mean_minutes()) << "query " << i;
  }

  EXPECT_EQ(stage1->Count(), stage1_before);
  EXPECT_EQ(service.cache_size(), size_before);
  OracleServiceStats after = service.stats();
  EXPECT_EQ(after.queries - before.queries, 4);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 1);
  EXPECT_EQ(after.cache_misses - before.cache_misses, 0);
  EXPECT_EQ(after.dedup_hits - before.dedup_hits, 0);
}

TEST_F(OracleServiceFixture, ClearCacheResets) {
  OracleService service(oracle_);
  ASSERT_TRUE(service.Query(dataset_->split.test[0].odt).ok());
  EXPECT_GT(service.cache_size(), 0);
  service.ClearCache();
  EXPECT_EQ(service.cache_size(), 0);
}

TEST_F(OracleServiceFixture, HitRateStatistics) {
  OracleService service(oracle_);
  EXPECT_EQ(service.stats().hit_rate(), 0.0);
  const OdtInput& odt = dataset_->split.test[0].odt;
  ASSERT_TRUE(service.Query(odt).ok());
  ASSERT_TRUE(service.Query(odt).ok());
  ASSERT_TRUE(service.Query(odt).ok());
  EXPECT_NEAR(service.stats().hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST_F(OracleServiceFixture, EvictsLeastRecentlyUsedBucket) {
  OracleServiceConfig cfg;
  cfg.max_entries = 2;
  OracleService service(oracle_, cfg);
  OdtInput base = dataset_->split.test[0].odt;
  auto at_hour = [&](int64_t k) {
    OdtInput odt = base;
    odt.departure_time += k * 3600;  // one bucket per hour with 30-min slots
    return odt;
  };
  ASSERT_TRUE(service.Query(at_hour(0)).ok());
  ASSERT_TRUE(service.Query(at_hour(1)).ok());
  EXPECT_EQ(service.cache_size(), 2);
  EXPECT_EQ(service.stats().evictions, 0);
  // Third distinct bucket evicts the oldest (hour 0), never the whole cache.
  ASSERT_TRUE(service.Query(at_hour(2)).ok());
  EXPECT_EQ(service.cache_size(), 2);
  EXPECT_EQ(service.stats().evictions, 1);
  // Hour 1 and 2 survived; hour 0 is gone.
  ASSERT_TRUE(service.Query(at_hour(1)).ok());
  ASSERT_TRUE(service.Query(at_hour(2)).ok());
  EXPECT_EQ(service.stats().cache_hits, 2);
  ASSERT_TRUE(service.Query(at_hour(0)).ok());
  EXPECT_EQ(service.stats().cache_hits, 2);
  EXPECT_EQ(service.stats().evictions, 2);
}

TEST_F(OracleServiceFixture, CacheHitRefreshesRecency) {
  OracleServiceConfig cfg;
  cfg.max_entries = 2;
  OracleService service(oracle_, cfg);
  OdtInput base = dataset_->split.test[1].odt;
  auto at_hour = [&](int64_t k) {
    OdtInput odt = base;
    odt.departure_time += k * 3600;
    return odt;
  };
  ASSERT_TRUE(service.Query(at_hour(0)).ok());
  ASSERT_TRUE(service.Query(at_hour(1)).ok());
  // Touching hour 0 makes hour 1 the LRU victim for the next insert.
  ASSERT_TRUE(service.Query(at_hour(0)).ok());
  ASSERT_TRUE(service.Query(at_hour(2)).ok());
  ASSERT_TRUE(service.Query(at_hour(0)).ok());
  EXPECT_EQ(service.stats().cache_hits, 2);
  EXPECT_EQ(service.stats().evictions, 1);
}

TEST_F(OracleServiceFixture, OneWaveEvictsWhenOverCapacity) {
  OracleServiceConfig cfg;
  cfg.max_entries = 3;
  OracleService service(oracle_, cfg);
  std::vector<OdtInput> odts;
  OdtInput base = dataset_->split.test[2].odt;
  for (int64_t k = 0; k < 6; ++k) {
    OdtInput odt = base;
    odt.departure_time += k * 3600;
    odts.push_back(odt);
  }
  ASSERT_TRUE(service.QueryBatch(odts).ok());
  EXPECT_EQ(service.cache_size(), 3);
  EXPECT_EQ(service.stats().evictions, 3);
}

TEST_F(OracleServiceFixture, ScriptedWorkloadAccountsHitsMissesDedup) {
  OracleService service(oracle_);
  OdtInput q0 = dataset_->split.test[0].odt;
  OdtInput q1 = dataset_->split.test[0].odt;
  q1.departure_time += 6 * 3600;  // distinct slot -> distinct bucket
  OdtInput q2 = dataset_->split.test[0].odt;
  q2.departure_time += 12 * 3600;

  // Wave 1, cold cache: q0 misses, its duplicate free-rides on the same
  // miss-fill (dedup hit, NOT a cache hit), q1 misses.
  Result<std::vector<DotEstimate>> wave1 = service.QueryBatch({q0, q0, q1});
  ASSERT_TRUE(wave1.ok());
  OracleServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.batch_queries, 1);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.dedup_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  // Both duplicates resolved to the same miss-fill.
  EXPECT_DOUBLE_EQ((*wave1)[0].minutes, (*wave1)[1].minutes);

  // Wave 2: q0 and q1 are now cached; q2 is a fresh miss.
  ASSERT_TRUE(service.QueryBatch({q0, q1, q2}).ok());
  stats = service.stats();
  EXPECT_EQ(stats.queries, 6);
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_EQ(stats.dedup_hits, 1);
  EXPECT_EQ(stats.cache_misses, 3);

  // Single-query path: one warm hit, one cold miss on a fourth bucket.
  ASSERT_TRUE(service.Query(q2).ok());
  OdtInput q3 = dataset_->split.test[0].odt;
  q3.departure_time += 18 * 3600;
  ASSERT_TRUE(service.Query(q3).ok());
  stats = service.stats();
  EXPECT_EQ(stats.queries, 8);
  EXPECT_EQ(stats.cache_hits, 3);
  EXPECT_EQ(stats.cache_misses, 4);
  EXPECT_EQ(stats.evictions, 0);
  // hit_rate counts dedup free-riders: (3 + 1) / 8.
  EXPECT_NEAR(stats.hit_rate(), 0.5, 1e-12);

  // The same workload shows up in the process-wide metrics export.
  std::string text = obs::MetricsToPrometheusText();
  EXPECT_NE(text.find("dot_service_queries_total"), std::string::npos);
  EXPECT_NE(text.find("dot_service_dedup_hits_total"), std::string::npos);
  EXPECT_NE(text.find("dot_service_batch_latency_us_count"), std::string::npos);
  obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  EXPECT_GE(snap.counters.at("dot_service_queries_total"), 8);
  EXPECT_GE(snap.counters.at("dot_service_dedup_hits_total"), 1);
  EXPECT_GE(snap.histograms.at("dot_service_batch_latency_us").count, 2);
  EXPECT_GT(snap.histograms.at("dot_service_batch_latency_us").p50, 0.0);
  EXPECT_GE(snap.histograms.at("dot_service_batch_size").count, 2);
}

TEST_F(OracleServiceFixture, QueryBatchTraceHasNestedSpans) {
  OracleService service(oracle_);
  std::vector<OdtInput> wave;
  for (size_t i = 0; i < 3; ++i) wave.push_back(dataset_->split.test[i].odt);
  obs::StartTracing();
  ASSERT_TRUE(service.QueryBatch(wave).ok());
  std::vector<obs::TraceEvent> events = obs::StopTracing();

  auto find = [&](const std::string& name) -> const obs::TraceEvent* {
    for (const auto& e : events) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  const obs::TraceEvent* batch = find("OracleService::QueryBatch");
  const obs::TraceEvent* infer = find("DotOracle::InferPits");
  const obs::TraceEvent* stage2 = find("DotOracle::EstimateFromPits");
  const obs::TraceEvent* step = find("reverse_step");
  const obs::TraceEvent* conv = find("conv2d");
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(infer, nullptr);
  ASSERT_NE(stage2, nullptr);
  ASSERT_NE(step, nullptr);
  ASSERT_NE(conv, nullptr);

  // The acceptance chain: service -> oracle stage 1 -> per-reverse-step ->
  // conv ops, plus the stage-2 pass under the same service span.
  EXPECT_EQ(infer->parent_id, batch->id);
  EXPECT_EQ(stage2->parent_id, batch->id);
  auto by_id = [&](uint64_t id) -> const obs::TraceEvent* {
    for (const auto& e : events) {
      if (e.id == id) return &e;
    }
    return nullptr;
  };
  // reverse_step sits under the sampler span, which sits under InferPits.
  const obs::TraceEvent* sampler = by_id(step->parent_id);
  ASSERT_NE(sampler, nullptr);
  EXPECT_EQ(sampler->parent_id, infer->id);
  EXPECT_FALSE(step->args.empty()) << "reverse_step must carry its step index";
  // At least one conv span is a child of a reverse step.
  bool conv_under_step = false;
  for (const auto& e : events) {
    if (e.name != "conv2d") continue;
    const obs::TraceEvent* parent = by_id(e.parent_id);
    if (parent != nullptr && parent->name == "reverse_step") {
      conv_under_step = true;
      break;
    }
  }
  EXPECT_TRUE(conv_under_step);

  // And the export is a loadable chrome trace.
  std::string json = obs::ToChromeJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("OracleService::QueryBatch"), std::string::npos);
}

TEST_F(OracleServiceFixture, TracingDoesNotChangeBatchResults) {
  // Tracing must not perturb the serving path: a wave answered under
  // tracing and its cached re-issue (tracing off) agree exactly.
  OracleService service(oracle_);
  std::vector<OdtInput> wave;
  for (size_t i = 0; i < 2; ++i) wave.push_back(dataset_->split.test[i].odt);
  obs::StartTracing();
  Result<std::vector<DotEstimate>> traced = service.QueryBatch(wave);
  obs::StopTracing();
  ASSERT_TRUE(traced.ok());
  Result<std::vector<DotEstimate>> cached = service.QueryBatch(wave);
  ASSERT_TRUE(cached.ok());
  for (size_t i = 0; i < wave.size(); ++i) {
    EXPECT_DOUBLE_EQ((*traced)[i].minutes, (*cached)[i].minutes);
  }
}

TEST_F(OracleServiceFixture, ConcurrentQueriesKeepStatsConsistent) {
  OracleServiceConfig cfg;
  cfg.max_entries = 4;  // small enough to force concurrent evictions
  OracleService service(oracle_, cfg);
  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        OdtInput odt = dataset_->split.test[(t + i) % 6].odt;
        odt.departure_time += t * 3600;
        if (t % 2 == 0) {
          if (!service.Query(odt).ok()) ++failures;
        } else {
          OdtInput other = dataset_->split.test[(t + i + 1) % 6].odt;
          Result<std::vector<DotEstimate>> r = service.QueryBatch({odt, other});
          if (!r.ok() || r->size() != 2) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  OracleServiceStats stats = service.stats();
  // Half the threads issue 1 query per iteration, half issue 2.
  EXPECT_EQ(stats.queries, kThreads / 2 * kItersPerThread * 3);
  EXPECT_EQ(stats.batch_queries, kThreads * kItersPerThread);
  EXPECT_LE(stats.cache_hits, stats.queries);
  EXPECT_LE(service.cache_size(), cfg.max_entries);
}

}  // namespace
}  // namespace dot
