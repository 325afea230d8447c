// Chaos harness for the sharded oracle (DESIGN.md §5i): crash, poison,
// and slow individual shards under concurrent load through the router and
// assert the serving invariants the refactor exists for — no request lost
// or double-answered, availability through the degradation ladder, shard
// quarantine + probe recovery, and zero-error hot swaps mid-load. Faults
// are injected through the `serve.shard_dispatch[.<id>]` failpoints.
//
// check.sh runs this suite under TSan (stage 10): every test that spawns
// load threads doubles as a race detector over the shard/router locking.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/shard.h"
#include "serve/router.h"
#include "tensor/storage.h"
#include "util/failpoint.h"

namespace dot {
namespace {

class ChaosFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityConfig cc = CityConfig::ChengduLike();
    cc.grid_nodes = 8;
    cc.spacing_meters = 1300;
    city_ = new City(cc, 4);
    TripConfig tc = TripConfig::ChengduLike();
    tc.num_trips = 300;
    dataset_ = new BenchmarkDataset(BuildDataset(*city_, tc, 23, "chaos"));
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
    DotOracle oracle(cfg, *grid_);
    ASSERT_TRUE(oracle.TrainStage1(dataset_->split.train).ok());
    ASSERT_TRUE(
        oracle.TrainStage2(dataset_->split.train, dataset_->split.val).ok());
    // Shards load replicas from a sealed checkpoint, exactly like
    // dot_server — the factory re-runs on every hot swap.
    ckpt_ = new std::string("/tmp/dot_chaos_" +
                            std::to_string(::getpid()) + ".ckpt");
    ASSERT_TRUE(oracle.SaveFile(*ckpt_).ok());
  }
  static void TearDownTestSuite() {
    if (ckpt_ != nullptr) std::remove(ckpt_->c_str());
    delete ckpt_;
    delete cfg_;
    delete grid_;
    delete dataset_;
    delete city_;
    ckpt_ = nullptr;
    cfg_ = nullptr;
    grid_ = nullptr;
    dataset_ = nullptr;
    city_ = nullptr;
  }
  // Never leak an armed failpoint into the next test.
  void TearDown() override { fail::DisarmAll(); }

  static ModelFactory CheckpointFactory() {
    return []() -> Result<std::unique_ptr<DotOracle>> {
      auto oracle = std::make_unique<DotOracle>(*cfg_, *grid_);
      Status loaded = oracle->LoadFile(*ckpt_);
      if (!loaded.ok()) return loaded;
      return oracle;
    };
  }

  /// Fast-failover shard config: no retry sleeps, quick probes.
  static ShardConfig FastShardConfig(const std::string& id) {
    ShardConfig cfg;
    cfg.shard_id = id;
    cfg.probe_backoff_initial_ms = 10;
    cfg.probe_backoff_max_ms = 100;
    cfg.service.max_retries = 0;
    cfg.service.retry_backoff_ms = 0;
    return cfg;
  }

  static std::unique_ptr<OracleShard> MakeShard(ShardConfig cfg) {
    Result<std::unique_ptr<OracleShard>> shard =
        OracleShard::Create(CheckpointFactory(), std::move(cfg));
    EXPECT_TRUE(shard.ok()) << shard.status().ToString();
    return std::move(*shard);
  }

  static serve::ShardRouter MakeRouter(int n, const std::string& id_prefix) {
    std::vector<std::unique_ptr<OracleShard>> shards;
    for (int s = 0; s < n; ++s) {
      shards.push_back(MakeShard(FastShardConfig(id_prefix +
                                                 std::to_string(s))));
    }
    return serve::ShardRouter(std::move(shards));
  }

  /// A wave of `n` real OD pairs starting at test-trip `start` (cycled).
  static std::vector<OdtInput> Wave(int start, int n) {
    const auto& trips = dataset_->split.test;
    std::vector<OdtInput> wave;
    wave.reserve(n);
    for (int i = 0; i < n; ++i) {
      wave.push_back(trips[(start + i) % trips.size()].odt);
    }
    return wave;
  }

  static void ExpectAllServed(const Result<std::vector<DotEstimate>>& r,
                              size_t expected) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->size(), expected);
    for (const DotEstimate& e : *r) {
      EXPECT_TRUE(std::isfinite(e.minutes));
      EXPECT_GT(e.minutes, 0.0);
    }
  }

  /// Same cache bucket: origin cell, destination cell and time-of-day slot.
  static bool SameBucket(const OdtInput& a, const OdtInput& b) {
    auto slot = [](const OdtInput& q) {
      return SecondsOfDay(q.departure_time) * kTodSlots / 86400;
    };
    return grid_->Locate(a.origin) == grid_->Locate(b.origin) &&
           grid_->Locate(a.destination) == grid_->Locate(b.destination) &&
           slot(a) == slot(b);
  }

  /// `n` test trips from `start` on whose buckets differ from each other
  /// and from every query of `avoid`: a wave that misses a cache holding
  /// only `avoid`'s buckets.
  static std::vector<OdtInput> FreshWave(int start, size_t n,
                                         const std::vector<OdtInput>& avoid) {
    std::vector<OdtInput> wave;
    std::vector<OdtInput> taken = avoid;
    const auto& trips = dataset_->split.test;
    for (size_t i = start; i < trips.size() && wave.size() < n; ++i) {
      const OdtInput& odt = trips[i].odt;
      if (std::none_of(taken.begin(), taken.end(), [&](const OdtInput& t) {
            return SameBucket(t, odt);
          })) {
        wave.push_back(odt);
        taken.push_back(odt);
      }
    }
    return wave;
  }

  /// A copy of `odt` with its origin moved by up to ~2 km of latitude in
  /// ~55 m steps, staying in its grid cell (so in its cache bucket), that
  /// `router` sends to another shard. False when no step gets there.
  static bool TwinOnOtherShard(serve::ShardRouter* router,
                               const OdtInput& odt, OdtInput* twin) {
    for (int k = 1; k <= 40; ++k) {
      for (double sign : {-1.0, 1.0}) {
        OdtInput t = odt;
        t.origin.lat += sign * k * 0.0005;
        if (SameBucket(t, odt) &&
            router->ShardForQuery(t) != router->ShardForQuery(odt)) {
          *twin = t;
          return true;
        }
      }
    }
    return false;
  }

  static void ExpectBitwiseEqual(const DotEstimate& a, const DotEstimate& b) {
    EXPECT_EQ(a.minutes, b.minutes);
    EXPECT_EQ(a.quality, b.quality);
    const Tensor& ta = a.pit.tensor();
    const Tensor& tb = b.pit.tensor();
    ASSERT_EQ(ta.numel(), tb.numel());
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(),
                          static_cast<size_t>(ta.numel()) * sizeof(float)),
              0);
  }

  static City* city_;
  static BenchmarkDataset* dataset_;
  static Grid* grid_;
  static DotConfig* cfg_;
  static std::string* ckpt_;
};

City* ChaosFixture::city_ = nullptr;
BenchmarkDataset* ChaosFixture::dataset_ = nullptr;
Grid* ChaosFixture::grid_ = nullptr;
DotConfig* ChaosFixture::cfg_ = nullptr;
std::string* ChaosFixture::ckpt_ = nullptr;

// ---- Crash one shard under concurrent load ---------------------------------

TEST_F(ChaosFixture, CrashedShardUnderLoadLosesNothingAndRecovers) {
  serve::ShardRouter router = MakeRouter(3, "c");
  // Shard c1's model "crashes" on every dispatch for the whole load run.
  fail::Arm("serve.shard_dispatch.c1", fail::Action::kError);

  constexpr int kThreads = 4;
  constexpr int kWavesPerThread = 20;
  constexpr int kWaveSize = 8;
  std::atomic<int64_t> answered{0};
  std::atomic<int64_t> full_or_degraded{0};
  std::atomic<int64_t> wave_errors{0};
  std::vector<std::thread> load;
  for (int t = 0; t < kThreads; ++t) {
    load.emplace_back([&, t] {
      for (int w = 0; w < kWavesPerThread; ++w) {
        std::vector<OdtInput> wave = Wave(t * 31 + w * kWaveSize, kWaveSize);
        Result<std::vector<DotEstimate>> r = router.Route(wave, {});
        if (!r.ok()) {
          ++wave_errors;
          continue;
        }
        // Exactly one answer per input — nothing lost, nothing duplicated.
        if (r->size() != wave.size()) {
          ++wave_errors;
          continue;
        }
        answered += static_cast<int64_t>(r->size());
        for (const DotEstimate& e : *r) {
          if (std::isfinite(e.minutes) && e.minutes > 0) ++full_or_degraded;
        }
      }
    });
  }
  for (auto& t : load) t.join();

  // Availability floor: every single request was answered with a usable
  // estimate (full quality off healthy shards, ladder-tagged off the
  // crashed one). The ISSUE floor is 99%; the design delivers 100%.
  int64_t total = kThreads * kWavesPerThread * kWaveSize;
  EXPECT_EQ(wave_errors.load(), 0);
  EXPECT_EQ(answered.load(), total);
  EXPECT_GE(full_or_degraded.load(), (total * 99) / 100);

  // The crashed shard was quarantined, the healthy ones untouched.
  std::vector<ShardStatus> statuses = router.Statuses();
  ASSERT_EQ(statuses.size(), 3u);
  for (const ShardStatus& s : statuses) {
    if (s.id == "c1") {
      EXPECT_EQ(s.health, ShardHealth::kQuarantined);
      EXPECT_GE(s.quarantines, 1);
    } else {
      EXPECT_EQ(s.health, ShardHealth::kHealthy);
      EXPECT_EQ(s.failures, 0);
    }
  }

  // Disarm the fault: the next due probe must bring the shard back.
  fail::DisarmAll();
  OracleShard* crashed = nullptr;
  for (size_t i = 0; i < router.shard_count(); ++i) {
    if (router.shard(i)->id() == "c1") crashed = router.shard(i);
  }
  ASSERT_NE(crashed, nullptr);
  for (int attempt = 0;
       attempt < 100 && crashed->health() != ShardHealth::kHealthy;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // Keep traffic flowing so a due probe has a wave to ride on.
    Result<std::vector<DotEstimate>> r =
        router.Route(Wave(attempt, kWaveSize), {});
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(crashed->health(), ShardHealth::kHealthy);
  // Recovered means full path: a fresh wave serves at full quality again.
  Result<std::vector<DotEstimate>> after = crashed->ServeWave(Wave(0, 2), {});
  ExpectAllServed(after, 2);
  EXPECT_EQ((*after)[0].quality, ServedQuality::kFull);
}

// ---- NaN poisoning, quarantine threshold, and ladder tagging ---------------

TEST_F(ChaosFixture, NanPoisonQuarantinesAtThresholdAndLadderIsTagged) {
  auto clock = std::make_shared<double>(0.0);
  ShardConfig cfg = FastShardConfig("n0");
  cfg.probe_backoff_initial_ms = 200;
  cfg.now_ms = [clock] { return *clock; };
  std::unique_ptr<OracleShard> shard = MakeShard(std::move(cfg));

  fail::Arm("serve.shard_dispatch.n0", fail::Action::kNan);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(shard->health(),
              i < 3 ? ShardHealth::kHealthy : ShardHealth::kQuarantined);
    Result<std::vector<DotEstimate>> r = shard->ServeWave(Wave(i, 4), {});
    ExpectAllServed(r, 4);
    // A poisoned dispatch serves through the ladder, tagged below full.
    for (const DotEstimate& e : *r) {
      EXPECT_NE(e.quality, ServedQuality::kFull);
    }
  }
  EXPECT_EQ(shard->health(), ShardHealth::kQuarantined);
  ShardStatus st = shard->status();
  EXPECT_EQ(st.consecutive_failures, 3);
  EXPECT_EQ(st.quarantines, 1);
  EXPECT_NEAR(st.next_probe_in_ms, 200, 1e-9);

  // Probe not yet due: the wave is answered ladder-only (no model touch,
  // so no probe consumed and the armed failpoint does not fire).
  int64_t fires_before = fail::Get("serve.shard_dispatch.n0")->fire_count();
  Result<std::vector<DotEstimate>> ladder = shard->ServeWave(Wave(9, 4), {});
  ExpectAllServed(ladder, 4);
  for (const DotEstimate& e : *ladder) {
    EXPECT_NE(e.quality, ServedQuality::kFull);
  }
  EXPECT_EQ(fail::Get("serve.shard_dispatch.n0")->fire_count(), fires_before);
  EXPECT_EQ(shard->status().probes, 0);

  // Fault cleared + backoff elapsed: the next wave is the probe, succeeds,
  // and the shard re-enters full-quality service.
  fail::DisarmAll();
  *clock += 250;
  Result<std::vector<DotEstimate>> probe = shard->ServeWave(Wave(0, 2), {});
  ExpectAllServed(probe, 2);
  EXPECT_EQ(shard->health(), ShardHealth::kHealthy);
  EXPECT_EQ(shard->status().probes, 1);
  EXPECT_EQ(shard->status().consecutive_failures, 0);
  EXPECT_EQ((*probe)[0].quality, ServedQuality::kFull);
}

// ---- Probe backoff doubles while the fault persists ------------------------

TEST_F(ChaosFixture, FailedProbesBackOffExponentially) {
  auto clock = std::make_shared<double>(0.0);
  ShardConfig cfg = FastShardConfig("p0");
  cfg.probe_backoff_initial_ms = 200;
  cfg.probe_backoff_max_ms = 500;
  cfg.now_ms = [clock] { return *clock; };
  std::unique_ptr<OracleShard> shard = MakeShard(std::move(cfg));

  fail::Arm("serve.shard_dispatch.p0", fail::Action::kError);
  for (int i = 0; i < 3; ++i) {
    ExpectAllServed(shard->ServeWave(Wave(i, 2), {}), 2);
  }
  ASSERT_EQ(shard->health(), ShardHealth::kQuarantined);
  EXPECT_NEAR(shard->status().next_probe_in_ms, 200, 1e-9);

  *clock += 200;  // first probe due: fails, backoff doubles to 400
  ExpectAllServed(shard->ServeWave(Wave(0, 2), {}), 2);
  EXPECT_EQ(shard->status().probes, 1);
  EXPECT_NEAR(shard->status().next_probe_in_ms, 400, 1e-9);

  *clock += 400;  // second probe: fails, doubling is capped at 500
  ExpectAllServed(shard->ServeWave(Wave(2, 2), {}), 2);
  EXPECT_EQ(shard->status().probes, 2);
  EXPECT_NEAR(shard->status().next_probe_in_ms, 500, 1e-9);

  fail::DisarmAll();
  *clock += 500;  // fault cleared: the third probe recovers the shard
  ExpectAllServed(shard->ServeWave(Wave(4, 2), {}), 2);
  EXPECT_EQ(shard->health(), ShardHealth::kHealthy);
  EXPECT_EQ(shard->status().probes, 3);
  EXPECT_NEAR(shard->status().next_probe_in_ms, 0, 1e-9);
}

// ---- Injected latency shows in the window p95 ------------------------------

TEST_F(ChaosFixture, InvalidOnlyWaveLeavesADueProbeDue) {
  auto clock = std::make_shared<double>(0.0);
  ShardConfig cfg = FastShardConfig("v0");
  cfg.now_ms = [clock] { return *clock; };
  std::unique_ptr<OracleShard> shard = MakeShard(std::move(cfg));
  fail::Arm("serve.shard_dispatch.v0", fail::Action::kError, /*count=*/3);
  for (int i = 0; i < 3; ++i) {
    ExpectAllServed(shard->ServeWave(Wave(i, 2), {}), 2);
  }
  ASSERT_EQ(shard->health(), ShardHealth::kQuarantined);

  *clock += 10;  // the probe is due
  OdtInput far = Wave(0, 1)[0];
  far.origin.lng = grid_->box().max_lng + 1.0;
  Result<std::vector<DotEstimate>> r = shard->ServeWave({far}, {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE((*r)[0].status.IsInvalidArgument());
  // That wave reached no model, so it proved nothing.
  EXPECT_EQ(shard->health(), ShardHealth::kQuarantined);
  EXPECT_NEAR(shard->status().next_probe_in_ms, 0, 1e-9);

  ExpectAllServed(shard->ServeWave(Wave(4, 2), {}), 2);  // the real probe
  EXPECT_EQ(shard->health(), ShardHealth::kHealthy);
}

// ---- Health moves only on stage-1 evidence ---------------------------------

TEST_F(ChaosFixture, HitOnlyWavesDoNotResetTheStage1FailureStreak) {
  auto clock = std::make_shared<double>(0.0);
  ShardConfig cfg = FastShardConfig("w0");
  cfg.now_ms = [clock] { return *clock; };
  std::unique_ptr<OracleShard> shard = MakeShard(std::move(cfg));
  std::vector<OdtInput> warm = FreshWave(0, 2, {});
  ExpectAllServed(shard->ServeWave(warm, {}), 2);  // caches both buckets
  std::vector<OdtInput> fresh = FreshWave(2, 6, warm);
  ASSERT_EQ(fresh.size(), 6u);

  // Stage 1 is dead. Every fresh wave misses and fails; every warm wave is
  // answered from the cache and draws no sample, so it proves nothing.
  fail::Arm("dot_oracle.infer_pits", fail::Action::kError);
  for (size_t k = 0; k < 3; ++k) {
    ExpectAllServed(shard->ServeWave({fresh[2 * k], fresh[2 * k + 1]}, {}), 2);
    Result<std::vector<DotEstimate>> hits = shard->ServeWave(warm, {});
    ExpectAllServed(hits, 2);
    for (const DotEstimate& e : *hits) {
      EXPECT_EQ(e.quality, ServedQuality::kFull);
    }
  }
  ShardStatus st = shard->status();
  EXPECT_EQ(st.health, ShardHealth::kQuarantined);
  EXPECT_EQ(st.consecutive_failures, 3);
  EXPECT_EQ(st.quarantines, 1);
}

TEST_F(ChaosFixture, HitOnlyProbeLeavesADeadShardQuarantined) {
  auto clock = std::make_shared<double>(0.0);
  ShardConfig cfg = FastShardConfig("w1");
  cfg.now_ms = [clock] { return *clock; };
  std::unique_ptr<OracleShard> shard = MakeShard(std::move(cfg));
  std::vector<OdtInput> warm = FreshWave(0, 2, {});
  ExpectAllServed(shard->ServeWave(warm, {}), 2);  // caches both buckets
  std::vector<OdtInput> fresh = FreshWave(2, 10, warm);
  ASSERT_EQ(fresh.size(), 10u);
  auto fresh_wave = [&](size_t k) {
    return std::vector<OdtInput>{fresh[2 * k], fresh[2 * k + 1]};
  };

  fail::Arm("dot_oracle.infer_pits", fail::Action::kError);
  for (size_t k = 0; k < 3; ++k) {
    ExpectAllServed(shard->ServeWave(fresh_wave(k), {}), 2);
  }
  ASSERT_EQ(shard->health(), ShardHealth::kQuarantined);

  *clock += 10;  // the probe is due
  ExpectAllServed(shard->ServeWave(warm, {}), 2);
  // All hits: the probe drew no sample, so it neither recovers the shard
  // nor counts, and it stays due.
  ShardStatus st = shard->status();
  EXPECT_EQ(st.health, ShardHealth::kQuarantined);
  EXPECT_NEAR(st.next_probe_in_ms, 0, 1e-9);
  EXPECT_EQ(st.probes, 0);

  ExpectAllServed(shard->ServeWave(fresh_wave(3), {}), 2);  // a failed probe
  st = shard->status();
  EXPECT_EQ(st.health, ShardHealth::kQuarantined);
  EXPECT_EQ(st.probes, 1);
  EXPECT_NEAR(st.next_probe_in_ms, 20, 1e-9);

  fail::DisarmAll();
  *clock += 20;  // stage 1 is back: the next probe samples and recovers
  Result<std::vector<DotEstimate>> r = shard->ServeWave(fresh_wave(4), {});
  ExpectAllServed(r, 2);
  for (const DotEstimate& e : *r) EXPECT_EQ(e.quality, ServedQuality::kFull);
  EXPECT_EQ(shard->health(), ShardHealth::kHealthy);
  EXPECT_EQ(shard->status().probes, 2);
}

TEST_F(ChaosFixture, DelayInjectionRaisesWindowP95ThenAgesOut) {
  ShardConfig cfg = FastShardConfig("d0");
  cfg.window_seconds = 0.8;  // short window so slow samples age out in a test
  cfg.window_bucket_seconds = 0.2;
  std::unique_ptr<OracleShard> shard = MakeShard(std::move(cfg));
  // A generous line and a much larger injected delay: the gap has to
  // survive sanitizer slowdowns (TSan makes cache-hit waves ~10-20x slower).
  constexpr double kLineUs = 60000;  // 60 ms

  // Warm the cache so un-delayed waves are far under the line.
  std::vector<OdtInput> wave = Wave(0, 4);
  ExpectAllServed(shard->ServeWave(wave, {}), 4);

  // 200 ms of injected latency ahead of every dispatch: a hung dependency.
  // The p95 is reported, not acted on: the shard keeps serving full answers.
  fail::Arm("serve.shard_dispatch.d0", fail::Action::kDelay, /*count=*/-1,
            /*arg=*/200.0);
  for (int i = 0; i < 4; ++i) {
    Result<std::vector<DotEstimate>> r = shard->ServeWave(wave, {});
    ExpectAllServed(r, 4);
    for (const DotEstimate& e : *r) EXPECT_EQ(e.quality, ServedQuality::kFull);
  }
  EXPECT_GT(shard->status().window_p95_us, kLineUs);
  EXPECT_EQ(shard->health(), ShardHealth::kHealthy);

  // Latency source removed + slow samples aged out. The rolling window
  // covers up to window_seconds + bucket_seconds (1.0 s) depending on
  // bucket alignment, so sleep past that worst case — one surviving 200 ms
  // sample would pin the p95 above the line.
  fail::DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(1300));
  for (int i = 0; i < 4; ++i) ExpectAllServed(shard->ServeWave(wave, {}), 4);
  EXPECT_LT(shard->status().window_p95_us, kLineUs);
}

// ---- Hot swap under concurrent load ----------------------------------------

TEST_F(ChaosFixture, HotSwapUnderLoadServesZeroErrorsAndBumpsVersions) {
  serve::ShardRouter router = MakeRouter(3, "s");
  for (const ShardStatus& s : router.Statuses()) {
    EXPECT_EQ(s.model_version, 1);
  }

  constexpr int kThreads = 3;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> served{0};
  std::vector<std::thread> load;
  for (int t = 0; t < kThreads; ++t) {
    load.emplace_back([&, t] {
      for (int w = 0; !stop.load(std::memory_order_relaxed); ++w) {
        std::vector<OdtInput> wave = Wave(t * 17 + w, 6);
        Result<std::vector<DotEstimate>> r = router.Route(wave, {});
        if (!r.ok() || r->size() != wave.size()) {
          ++errors;
          continue;
        }
        served += static_cast<int64_t>(r->size());
        for (const DotEstimate& e : *r) {
          if (!std::isfinite(e.minutes) || e.minutes <= 0) ++errors;
        }
      }
    });
  }
  // Let the load reach steady state, then swap every shard mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Status swapped = router.SwapAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : load) t.join();

  EXPECT_TRUE(swapped.ok()) << swapped.ToString();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(served.load(), 0);
  for (const ShardStatus& s : router.Statuses()) {
    EXPECT_EQ(s.model_version, 2);
    EXPECT_EQ(s.swaps, 1);
    EXPECT_EQ(s.health, ShardHealth::kHealthy);
  }
  // And the swapped fleet keeps serving.
  ExpectAllServed(router.Route(Wave(0, 6), {}), 6);
}

// ---- Hot swap frees the retired replica ------------------------------------

TEST_F(ChaosFixture, HotSwapFreesTheRetiredReplica) {
  const int64_t before_create = storage::GetStats().bytes_live;
  std::unique_ptr<OracleShard> shard = MakeShard(FastShardConfig("f0"));
  // What a replica that is never freed would leave behind: at least the
  // parameters its creation made live.
  const int64_t replica_bytes =
      storage::GetStats().bytes_live - before_create;
  ASSERT_GT(replica_bytes, 0);

  std::vector<OdtInput> wave = Wave(0, 6);
  ExpectAllServed(shard->ServeWave(wave, {}), 6);
  const int64_t one_replica = storage::GetStats().bytes_live;

  // The swap retires the old runtime, whose parameters and cached PiTs must
  // die with it. The canary pass and the second wave refill the new cache
  // with PiTs of the same buckets, so live bytes return to the same level.
  ASSERT_TRUE(shard->HotSwap().ok());
  ExpectAllServed(shard->ServeWave(wave, {}), 6);
  EXPECT_EQ(storage::GetStats().bytes_live, one_replica)
      << "a leaked replica reads at least " << replica_bytes
      << " bytes higher";
}

// ---- Swap failure leaves the old model serving -----------------------------

TEST_F(ChaosFixture, FailedSwapKeepsTheCurrentModelServing) {
  // Factory succeeds once (shard creation), then the checkpoint "goes
  // away" — every swap attempt must fail without disturbing serving.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ModelFactory flaky = [calls]() -> Result<std::unique_ptr<DotOracle>> {
    if (calls->fetch_add(1) > 0) {
      return Status::Internal("checkpoint store unavailable");
    }
    auto oracle = std::make_unique<DotOracle>(*cfg_, *grid_);
    Status loaded = oracle->LoadFile(*ckpt_);
    if (!loaded.ok()) return loaded;
    return oracle;
  };
  Result<std::unique_ptr<OracleShard>> shard =
      OracleShard::Create(flaky, FastShardConfig("f0"));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();

  Status swap = (*shard)->HotSwap();
  EXPECT_FALSE(swap.ok());
  EXPECT_EQ((*shard)->model_version(), 1);
  EXPECT_EQ((*shard)->status().swaps, 0);
  Result<std::vector<DotEstimate>> r = (*shard)->ServeWave(Wave(0, 3), {});
  ExpectAllServed(r, 3);
  EXPECT_EQ((*r)[0].quality, ServedQuality::kFull);
}

TEST_F(ChaosFixture, UntrainedFactoryOutputIsRejectedAtCreateAndSwap) {
  ModelFactory untrained = []() -> Result<std::unique_ptr<DotOracle>> {
    return std::make_unique<DotOracle>(*cfg_, *grid_);  // never trained
  };
  Result<std::unique_ptr<OracleShard>> bad =
      OracleShard::Create(untrained, FastShardConfig("u0"));
  EXPECT_FALSE(bad.ok());

  // The swap half: the factory's first model is trained, every later one
  // is not, so the shadow is refused before it takes any traffic.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ModelFactory trained_once = [calls]() -> Result<std::unique_ptr<DotOracle>> {
    if (calls->fetch_add(1) > 0) {
      return std::make_unique<DotOracle>(*cfg_, *grid_);
    }
    return CheckpointFactory()();
  };
  Result<std::unique_ptr<OracleShard>> shard =
      OracleShard::Create(trained_once, FastShardConfig("u1"));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  Status swap = (*shard)->HotSwap();
  EXPECT_TRUE(swap.IsFailedPrecondition()) << swap.ToString();
  EXPECT_EQ((*shard)->model_version(), 1);
  EXPECT_EQ((*shard)->status().swaps, 0);
  Result<std::vector<DotEstimate>> r = (*shard)->ServeWave(Wave(0, 3), {});
  ExpectAllServed(r, 3);
  EXPECT_EQ((*r)[0].quality, ServedQuality::kFull);
}

// ---- The canary admits only full-quality answers ---------------------------

TEST_F(ChaosFixture, CanaryBelowFullQualityRefusesTheSwap) {
  // Count -1: every sampler call diverges, so the shadow's full pass and
  // its reduced-steps round both fail the canary. Count 1: only the full
  // pass diverges (max_retries = 0, so no retry runs) and the
  // reduced-steps round answers every canary query, which must not be
  // enough to publish the shadow either.
  struct Case {
    int64_t count;
    const char* id;
    const char* refusal;
  };
  for (const Case& c : {Case{-1, "k0", "canary stage-1 inference failed"},
                        Case{1, "k1", "canary answer below full quality"}}) {
    SCOPED_TRACE(c.id);
    std::unique_ptr<OracleShard> shard = MakeShard(FastShardConfig(c.id));
    ExpectAllServed(shard->ServeWave(Wave(0, 4), {}), 4);  // fills the canary
    fail::Arm("diffusion.sample", fail::Action::kNan, c.count);
    Status swap = shard->HotSwap();
    fail::DisarmAll();
    EXPECT_FALSE(swap.ok());
    EXPECT_NE(swap.message().find(c.refusal), std::string::npos)
        << swap.ToString();
    EXPECT_EQ(shard->model_version(), 1);
    EXPECT_EQ(shard->status().swaps, 0);
    Result<std::vector<DotEstimate>> r = shard->ServeWave(Wave(20, 4), {});
    ExpectAllServed(r, 4);
    for (const DotEstimate& e : *r) EXPECT_EQ(e.quality, ServedQuality::kFull);
  }
}

// ---- Per-shard metrics -----------------------------------------------------

TEST_F(ChaosFixture, PerShardCountersAreLabeledPerShard) {
  auto counter = [](const std::string& name, const std::string& shard) {
    return obs::MetricsRegistry::Get().GetCounter(name, {{"shard", shard}});
  };
  int64_t waves_m0 = counter("dot_shard_waves_total", "m0")->Value();
  int64_t waves_m1 = counter("dot_shard_waves_total", "m1")->Value();
  int64_t queries_m0 = counter("dot_shard_queries_total", "m0")->Value();
  int64_t queries_m1 = counter("dot_shard_queries_total", "m1")->Value();
  int64_t full_m0 = obs::MetricsRegistry::Get()
                        .GetCounter("dot_shard_quality_total",
                                    {{"shard", "m0"}, {"level", "full"}})
                        ->Value();

  std::vector<std::unique_ptr<OracleShard>> shards;
  shards.push_back(MakeShard(FastShardConfig("m0")));
  shards.push_back(MakeShard(FastShardConfig("m1")));
  // Serve only on m0: its counters move, m1's stay put (the labels really
  // separate the series).
  ExpectAllServed(shards[0]->ServeWave(Wave(0, 5), {}), 5);
  EXPECT_EQ(counter("dot_shard_waves_total", "m0")->Value(), waves_m0 + 1);
  EXPECT_EQ(counter("dot_shard_queries_total", "m0")->Value(),
            queries_m0 + 5);
  EXPECT_EQ(counter("dot_shard_waves_total", "m1")->Value(), waves_m1);
  EXPECT_EQ(counter("dot_shard_queries_total", "m1")->Value(), queries_m1);

  // Quality tallies land under the right level label.
  EXPECT_EQ(obs::MetricsRegistry::Get()
                .GetCounter("dot_shard_quality_total",
                            {{"shard", "m0"}, {"level", "full"}})
                ->Value(),
            full_m0 + 5);

  // The exposition renders the labeled series.
  std::string text = obs::MetricsToPrometheusText();
  EXPECT_NE(text.find("dot_shard_waves_total{shard=\"m0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dot_shard_quality_total{shard=\"m0\",level=\"full\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dot_shard_health{shard=\"m0\"}"), std::string::npos);
}

// ---- Shared passes across shards ------------------------------------------

TEST_F(ChaosFixture, RoutedColdWaveMatchesOneQueryBatchBitwise) {
  serve::ShardRouter router = MakeRouter(2, "b");
  // A cold wave over both shards, plus a twin of one member: same cache
  // bucket, other shard. Both shards miss that bucket.
  std::vector<OdtInput> wave = Wave(0, 8);
  OdtInput twin;
  size_t twinned = 0;
  while (twinned < wave.size() &&
         !TwinOnOtherShard(&router, wave[twinned], &twin)) {
    ++twinned;
  }
  ASSERT_LT(twinned, wave.size()) << "no member has a twin on another shard";
  wave.push_back(twin);
  std::vector<int> per_shard(2, 0);
  for (const OdtInput& odt : wave) {
    ++per_shard[router.ShardForQuery(odt) == router.shard(0) ? 0 : 1];
  }
  ASSERT_GT(per_shard[0], 0);
  ASSERT_GT(per_shard[1], 0);

  Result<std::vector<DotEstimate>> routed = router.Route(wave, {});
  ExpectAllServed(routed, wave.size());

  // The shard count does not change the answers: one QueryBatch of the
  // same wave on a fresh replica gives the same bits.
  Result<std::unique_ptr<DotOracle>> replica = CheckpointFactory()();
  ASSERT_TRUE(replica.ok());
  OracleService single((*replica).get(), FastShardConfig("x").service);
  Result<std::vector<DotEstimate>> direct = single.QueryBatch(wave);
  ExpectAllServed(direct, wave.size());
  for (size_t i = 0; i < wave.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    ExpectBitwiseEqual((*routed)[i], (*direct)[i]);
  }

  // The bucket was sampled once and cached by both shards: each side of
  // the twin pair is now a hit on its own shard.
  for (size_t i : {twinned, wave.size() - 1}) {
    obs::Counter* hits = obs::MetricsRegistry::Get().GetCounter(
        "dot_shard_cache_hits_total",
        {{"shard", router.ShardForQuery(wave[i])->id()}});
    int64_t before = hits->Value();
    Result<std::vector<DotEstimate>> again = router.Route({wave[i]}, {});
    ExpectAllServed(again, 1);
    EXPECT_EQ(hits->Value(), before + 1);
    ExpectBitwiseEqual((*again)[0], (*routed)[i]);
  }
}

TEST_F(ChaosFixture, OutOfAreaQueryErrorsAloneInARoutedWave) {
  // 15 fresh trips plus one query outside the service area, routed as one
  // wave over 2 shards.
  std::vector<OdtInput> valid = Wave(40, 15);
  std::vector<OdtInput> wave = valid;
  OdtInput far = valid[0];
  far.origin.lng = grid_->box().max_lng + 1.0;
  wave.push_back(far);
  serve::ShardRouter router = MakeRouter(2, "o");
  Result<std::vector<DotEstimate>> mixed = router.Route(wave, {});
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed->size(), wave.size());

  // The 15 answer exactly as they do routed alone on a fresh fleet.
  serve::ShardRouter fresh = MakeRouter(2, "p");
  Result<std::vector<DotEstimate>> alone = fresh.Route(valid, {});
  ExpectAllServed(alone, valid.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_TRUE((*mixed)[i].status.ok()) << (*mixed)[i].status.ToString();
    ExpectBitwiseEqual((*mixed)[i], (*alone)[i]);
  }
  // Only the 16th carries an error, and it names its own failed check.
  const Status& bad = (*mixed)[15].status;
  EXPECT_TRUE(bad.IsInvalidArgument()) << bad.ToString();
  EXPECT_NE(bad.message().find("origin outside the service area"),
            std::string::npos)
      << bad.ToString();
  // Neither fleet counted it.
  int64_t mixed_queries = 0, alone_queries = 0;
  for (const ShardStatus& s : router.Statuses()) mixed_queries += s.queries;
  for (const ShardStatus& s : fresh.Statuses()) alone_queries += s.queries;
  EXPECT_EQ(mixed_queries, 15);
  EXPECT_EQ(alone_queries, 15);
}

TEST_F(ChaosFixture, PoisonedSampleFailsOnlyTheShardThatNeededIt) {
  serve::ShardRouter router = MakeRouter(2, "q");
  // A cold wave over both shards whose first member has a bucket of its
  // own, so the shared pass samples it at batch position 0 and nobody
  // else needs that sample.
  std::vector<OdtInput> wave;
  for (int start = 0; start < 200 && wave.empty(); start += 6) {
    std::vector<OdtInput> w = Wave(start, 6);
    bool alone = true;
    bool both_shards = false;
    for (size_t i = 1; i < w.size(); ++i) {
      alone = alone && !SameBucket(w[0], w[i]);
      both_shards = both_shards ||
                    router.ShardForQuery(w[i]) != router.ShardForQuery(w[0]);
    }
    if (alone && both_shards) wave = w;
  }
  ASSERT_FALSE(wave.empty());
  OracleShard* owner = router.ShardForQuery(wave[0]);

  // `nan(1)` poisons batch position 0 of every sampler call, so the retry
  // and the reduced-steps round fail that sample again; the rest are fine.
  fail::Arm("diffusion.sample", fail::Action::kNan, /*count=*/-1, /*arg=*/1);
  Result<std::vector<DotEstimate>> r = router.Route(wave, {});
  ExpectAllServed(r, wave.size());
  EXPECT_NE((*r)[0].quality, ServedQuality::kFull);
  for (size_t i = 1; i < wave.size(); ++i) {
    EXPECT_EQ((*r)[i].quality, ServedQuality::kFull) << "query " << i;
  }
  for (const ShardStatus& s : router.Statuses()) {
    EXPECT_EQ(s.failures, s.id == owner->id() ? 1 : 0) << s.id;
    EXPECT_EQ(s.health, ShardHealth::kHealthy) << s.id;
  }

  // A bare `nan` still poisons the whole pass: every query degrades and
  // both shards record the failure.
  fail::Arm("diffusion.sample", fail::Action::kNan);
  serve::ShardRouter fresh = MakeRouter(2, "q");
  Result<std::vector<DotEstimate>> all = fresh.Route(wave, {});
  ExpectAllServed(all, wave.size());
  for (const DotEstimate& e : *all) {
    EXPECT_NE(e.quality, ServedQuality::kFull);
  }
  for (const ShardStatus& s : fresh.Statuses()) {
    EXPECT_EQ(s.failures, 1) << s.id;
  }
}

// ---- Hit counter across a hot swap ----------------------------------------

TEST_F(ChaosFixture, HitCounterCountsTheWaveAcrossAHotSwap) {
  std::unique_ptr<OracleShard> shard = MakeShard(FastShardConfig("h0"));
  obs::Counter* hits = obs::MetricsRegistry::Get().GetCounter(
      "dot_shard_cache_hits_total", {{"shard", "h0"}});
  std::vector<OdtInput> wave = Wave(0, 4);
  ExpectAllServed(shard->ServeWave(wave, {}), 4);  // the fill
  int64_t before = hits->Value();
  ExpectAllServed(shard->ServeWave(wave, {}), 4);  // 4 hits
  EXPECT_EQ(hits->Value(), before + 4);

  // The same wave again, held 300 ms at the dispatch hook with the old
  // runtime pinned, while a hot swap publishes a new one.
  fail::Arm("serve.shard_dispatch.h0", fail::Action::kDelay, /*count=*/1,
            /*arg=*/300.0);
  Result<std::vector<DotEstimate>> delayed = Status::Internal("not served");
  std::thread held([&] { delayed = shard->ServeWave(wave, {}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status swapped = shard->HotSwap();
  held.join();
  EXPECT_TRUE(swapped.ok()) << swapped.ToString();
  ExpectAllServed(delayed, 4);
  EXPECT_EQ(hits->Value(), before + 8);  // 4 more, not the old lifetime's
}

}  // namespace
}  // namespace dot
