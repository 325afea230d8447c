// Reproducibility tests: every stochastic component is seed-deterministic,
// so whole pipelines must reproduce bit-for-bit given the same seeds — and
// for a fixed GEMM kernel, bit-for-bit across thread counts too.

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/diffusion.h"
#include "core/unet.h"
#include "eval/dataset.h"
#include "sim/city.h"
#include "sim/trips.h"
#include "tensor/gemm_kernel.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "util/thread_pool.h"

namespace dot {
namespace {

TEST(Determinism, DatasetBuildsIdentically) {
  CityConfig cc = CityConfig::ChengduLike();
  cc.grid_nodes = 8;
  cc.spacing_meters = 1300;
  City city_a(cc, 5), city_b(cc, 5);
  TripConfig tc = TripConfig::ChengduLike();
  tc.num_trips = 120;
  BenchmarkDataset a = BuildDataset(city_a, tc, 77, "a");
  BenchmarkDataset b = BuildDataset(city_b, tc, 77, "b");
  ASSERT_EQ(a.split.train.size(), b.split.train.size());
  ASSERT_EQ(a.split.test.size(), b.split.test.size());
  for (size_t i = 0; i < a.split.train.size(); ++i) {
    EXPECT_EQ(a.split.train[i].odt.departure_time,
              b.split.train[i].odt.departure_time);
    EXPECT_DOUBLE_EQ(a.split.train[i].travel_time_minutes,
                     b.split.train[i].travel_time_minutes);
    EXPECT_EQ(a.split.train[i].odt.origin, b.split.train[i].odt.origin);
  }
}

TEST(Determinism, DifferentSeedsDifferentTrips) {
  CityConfig cc = CityConfig::ChengduLike();
  cc.grid_nodes = 8;
  cc.spacing_meters = 1300;
  City city(cc, 5);
  TripConfig tc = TripConfig::ChengduLike();
  tc.num_trips = 60;
  TripGenerator g1(&city, 1), g2(&city, 2);
  auto t1 = g1.Generate(tc);
  auto t2 = g2.Generate(tc);
  int64_t same = 0;
  for (size_t i = 0; i < t1.size(); ++i) {
    if (t1[i].odt.departure_time == t2[i].odt.departure_time) ++same;
  }
  EXPECT_LT(same, static_cast<int64_t>(t1.size()) / 4);
}

TEST(Determinism, UnetForwardIsSeedDeterministic) {
  UnetConfig cfg;
  cfg.base_channels = 8;
  cfg.levels = 2;
  cfg.cond_dim = 16;
  cfg.max_steps = 50;
  Rng rng_a(9), rng_b(9);
  UnetDenoiser a(cfg, &rng_a);
  UnetDenoiser b(cfg, &rng_b);
  Rng in_rng(10);
  Tensor x = Tensor::Randn({1, 3, 8, 8}, &in_rng);
  Tensor cond = Tensor::Zeros({1, 5});
  NoGradGuard guard;
  Tensor ya = a.PredictNoise(x, {3}, cond);
  Tensor yb = b.PredictNoise(x, {3}, cond);
  for (int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya.at(i), yb.at(i));
}

// ---- GEMM kernel x thread-count sweep --------------------------------------
// The engine contract (gemm_kernel.h): same kernel + same inputs -> bitwise
// identical outputs for ANY thread count, because work is only partitioned
// across disjoint output regions and the k-accumulation order is fixed.
// Verified end to end here: conv2d forward + backward, masked attention, the
// UNet denoiser (the oracle's stage-1 network) and both samplers driving it
// at 1, 2, 3, 4 and hardware-concurrency threads, plus run-to-run identity
// at each count. The samplers slice the batch by thread count, so this also
// proves slicing bitwise-safe.

class KernelThreadSweep : public ::testing::TestWithParam<gemm::Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == gemm::Kernel::kSimd && !gemm::SimdAvailable()) {
      GTEST_SKIP() << "SIMD microkernel unavailable on this CPU/build";
    }
    prev_kernel_ = gemm::ActiveKernel();
    gemm::SetKernel(GetParam());
  }
  void TearDown() override {
    gemm::SetKernel(prev_kernel_);
    ThreadPool::ResetGlobalForTesting();  // back to default sizing
  }

  gemm::Kernel prev_kernel_ = gemm::Kernel::kNaive;

  /// One fixed-seed pass through the GEMM-heavy paths; returns every output
  /// and gradient byte so the comparison below is exhaustive.
  static std::vector<float> RunWorkload() {
    std::vector<float> out;
    auto append = [&out](const std::vector<float>& v) {
      out.insert(out.end(), v.begin(), v.end());
    };
    // conv2d forward + backward (im2col GEMM, col2im GemmTA, dW GemmTB).
    {
      Rng rng(123);
      Tensor x = Tensor::Randn({2, 3, 16, 16}, &rng).set_requires_grad(true);
      Tensor w = Tensor::Randn({4, 3, 3, 3}, &rng).set_requires_grad(true);
      Tensor loss = Mean(Square(Conv2d(x, w, Tensor(), 1, 1)));
      loss.Backward();
      append({loss.item()});
      append(x.grad_vec());
      append(w.grad_vec());
    }
    NoGradGuard guard;
    // conv2d inference forward (the 9x9 input gives OHW=81, a
    // non-multiple-of-8 edge-tile GEMM).
    {
      Rng rng(55);
      Tensor cx = Tensor::Randn({2, 3, 9, 9}, &rng);
      Tensor cw = Tensor::Randn({4, 3, 3, 3}, &rng).set_requires_grad(true);
      append(Conv2d(cx, cw, Tensor(), 1, 1).ToVector());
    }
    // Masked multi-head attention (BatchMatMul paths).
    {
      Rng rng(7);
      nn::MultiheadAttention att(16, 2, &rng);
      Tensor ax = Tensor::Randn({2, 6, 16}, &rng);
      std::vector<float> key_bias = {0, 0, 0, 0, -1e9f, -1e9f};
      append(att.Forward(ax, &key_bias).ToVector());
    }
    // UNet denoiser forward — the oracle's stage-1 network.
    {
      UnetConfig cfg;
      cfg.base_channels = 8;
      cfg.levels = 2;
      cfg.cond_dim = 16;
      cfg.max_steps = 50;
      Rng rng(9);
      UnetDenoiser unet(cfg, &rng);
      Rng in_rng(10);
      Tensor ux = Tensor::Randn({1, 3, 8, 8}, &in_rng);
      append(unet.PredictNoise(ux, {3}, Tensor::Zeros({1, 5})).ToVector());
    }
    // Both samplers at b=5 on the UNet: the thread counts below cut the
    // batch into different slice partitions.
    {
      UnetConfig cfg;
      cfg.base_channels = 8;
      cfg.levels = 2;
      cfg.cond_dim = 16;
      cfg.max_steps = 6;
      Rng rng(31);
      UnetDenoiser unet(cfg, &rng);
      Diffusion diff{DiffusionSchedule(6)};
      Rng cond_rng(32);
      Tensor cond = Tensor::Rand({5, 5}, &cond_rng);
      Rng sample_rng(33);
      append(diff.SampleStrided(unet, cond, {5, 3, 8, 8}, 3, &sample_rng)
                 .ToVector());
      append(diff.Sample(unet, cond, {5, 3, 8, 8}, &sample_rng).ToVector());
    }
    return out;
  }
};

// Reverse-diffusion sampling must be bitwise identical with the storage
// pool on and off, for every kernel and across thread counts: recycling
// changes only where buffers live, never what is computed (and the
// AddReuse/ScaleReuse in-place paths must match their functional
// counterparts exactly).
TEST_P(KernelThreadSweep, SamplingBitwiseIdenticalPoolOnOff) {
  auto run_sampling = [] {
    UnetConfig cfg;
    cfg.base_channels = 8;
    cfg.levels = 2;
    cfg.cond_dim = 16;
    cfg.max_steps = 6;
    Rng rng(21);
    UnetDenoiser unet(cfg, &rng);
    Diffusion diff{DiffusionSchedule(6)};
    Rng sample_rng(22);
    return diff.Sample(unet, Tensor::Zeros({2, 5}), {2, 3, 8, 8}, &sample_rng)
        .ToVector();
  };
  const bool prev_pool = storage::PoolEnabled();
  for (int threads : {1, 4}) {
    ThreadPool::ResetGlobalForTesting(threads);
    storage::SetPoolEnabled(true);
    std::vector<float> pooled = run_sampling();
    storage::SetPoolEnabled(false);
    std::vector<float> unpooled = run_sampling();
    storage::SetPoolEnabled(prev_pool);
    ASSERT_EQ(pooled.size(), unpooled.size());
    EXPECT_EQ(0, std::memcmp(pooled.data(), unpooled.data(),
                             pooled.size() * sizeof(float)))
        << "pool on/off sampling differs at " << threads << " threads";
  }
}

TEST_P(KernelThreadSweep, BitwiseIdenticalAcrossThreadCounts) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool::ResetGlobalForTesting(1);
  const std::vector<float> baseline = RunWorkload();
  ASSERT_FALSE(baseline.empty());
  for (int threads : {1, 2, 3, 4, hw}) {
    ThreadPool::ResetGlobalForTesting(threads);
    std::vector<float> run1 = RunWorkload();
    std::vector<float> run2 = RunWorkload();  // run-to-run identity
    ASSERT_EQ(run1.size(), baseline.size());
    EXPECT_EQ(0, std::memcmp(run1.data(), baseline.data(),
                             baseline.size() * sizeof(float)))
        << "thread count " << threads << " diverges from single-thread";
    EXPECT_EQ(0, std::memcmp(run1.data(), run2.data(),
                             run1.size() * sizeof(float)))
        << "repeated run at " << threads << " threads not identical";
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelThreadSweep,
                         ::testing::Values(gemm::Kernel::kNaive,
                                           gemm::Kernel::kBlocked,
                                           gemm::Kernel::kSimd),
                         [](const auto& info) {
                           return std::string(gemm::KernelName(info.param));
                         });

TEST(Determinism, SpatialConditionFlagChangesArchitecture) {
  UnetConfig with = {};
  with.base_channels = 8;
  with.levels = 2;
  with.cond_dim = 16;
  with.max_steps = 50;
  UnetConfig without = with;
  without.spatial_condition = false;
  Rng r1(1), r2(1);
  UnetDenoiser a(with, &r1);
  UnetDenoiser b(without, &r2);
  // The stem consumes 3 extra channels when spatial conditioning is on.
  EXPECT_GT(a.NumParams(), b.NumParams());
  // The no-spatial variant still runs.
  Rng in_rng(2);
  Tensor x = Tensor::Randn({1, 3, 8, 8}, &in_rng);
  NoGradGuard guard;
  Tensor y = b.PredictNoise(x, {1}, Tensor::Zeros({1, 5}));
  EXPECT_EQ(y.shape(), x.shape());
}

}  // namespace
}  // namespace dot
