// Tests for the DDPM machinery: schedule properties, closed-form q-sampling,
// and the two reverse samplers.

#include "core/diffusion.h"

#include <atomic>
#include <cmath>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace dot {
namespace {

TEST(ScheduleTest, LinearBetasAndMonotoneAlphaBar) {
  DiffusionSchedule s(1000);
  EXPECT_NEAR(s.beta(0), 1e-4, 1e-9);
  EXPECT_NEAR(s.beta(999), 0.02, 1e-9);
  for (int64_t i = 1; i < 1000; ++i) {
    EXPECT_GT(s.beta(i), s.beta(i - 1));
    EXPECT_LT(s.alpha_bar(i), s.alpha_bar(i - 1));
  }
  EXPECT_NEAR(s.alpha(5), 1.0 - s.beta(5), 1e-12);
  // After the full schedule nearly all signal is destroyed (Eq. 5).
  EXPECT_LT(s.alpha_bar(999), 5e-2);
  EXPECT_GT(s.alpha_bar(0), 0.999);
}

TEST(ScheduleTest, ShortScheduleRescalesToReachNoise) {
  // The scaled-linear rule: betas grow by 1000/N so alpha_bar still decays
  // to ~0 over a short schedule.
  DiffusionSchedule s(100);
  EXPECT_EQ(s.num_steps(), 100);
  EXPECT_NEAR(s.beta(0), 1e-3, 1e-9);
  EXPECT_NEAR(s.beta(99), 0.2, 1e-9);
  EXPECT_LT(s.alpha_bar(99), 5e-2);
  // Explicit bounds still win.
  DiffusionSchedule custom(10, 1e-4, 0.02);
  EXPECT_NEAR(custom.beta(9), 0.02, 1e-9);
}

TEST(DiffusionTest, QSampleAtStepZeroBarelyPerturbs) {
  Diffusion d{DiffusionSchedule(1000)};
  Rng rng(1);
  Tensor x0 = Tensor::Full({2, 3, 4, 4}, 0.7f);
  Tensor eps = Tensor::Randn(x0.shape(), &rng);
  Tensor x1 = d.QSample(x0, {0, 0}, eps);
  for (int64_t i = 0; i < x1.numel(); ++i) {
    EXPECT_NEAR(x1.at(i), 0.7f, 0.1f);
  }
}

TEST(DiffusionTest, QSampleAtLastStepIsMostlyNoise) {
  Diffusion d{DiffusionSchedule(1000)};
  Rng rng(2);
  Tensor x0 = Tensor::Full({1, 3, 8, 8}, 1.0f);
  Tensor eps = Tensor::Randn(x0.shape(), &rng);
  Tensor xn = d.QSample(x0, {999}, eps);
  // Correlation with eps should dominate: x_n ~ sqrt(1-ab)*eps + tiny*x0.
  double dot_eps = 0, norm = 0;
  for (int64_t i = 0; i < xn.numel(); ++i) {
    dot_eps += xn.at(i) * eps.at(i);
    norm += eps.at(i) * eps.at(i);
  }
  EXPECT_NEAR(dot_eps / norm, std::sqrt(1.0 - d.schedule().alpha_bar(999)), 0.05);
}

TEST(DiffusionTest, QSampleMatchesClosedForm) {
  Diffusion d{DiffusionSchedule(100)};
  Rng rng(3);
  Tensor x0 = Tensor::Randn({1, 3, 2, 2}, &rng);
  Tensor eps = Tensor::Randn(x0.shape(), &rng);
  int64_t n = 42;
  Tensor xn = d.QSample(x0, {n}, eps);
  double ab = d.schedule().alpha_bar(n);
  for (int64_t i = 0; i < xn.numel(); ++i) {
    float expect = static_cast<float>(std::sqrt(ab)) * x0.at(i) +
                   static_cast<float>(std::sqrt(1 - ab)) * eps.at(i);
    EXPECT_NEAR(xn.at(i), expect, 1e-5);
  }
}

TEST(DiffusionTest, MakeTrainingExampleDrawsValidSteps) {
  Diffusion d{DiffusionSchedule(50)};
  Rng rng(4);
  Tensor x0 = Tensor::Zeros({8, 3, 4, 4});
  std::vector<int64_t> steps;
  Tensor eps;
  Tensor xn = d.MakeTrainingExample(x0, &rng, &steps, &eps);
  EXPECT_EQ(steps.size(), 8u);
  for (int64_t s : steps) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 50);
  }
  EXPECT_EQ(xn.shape(), x0.shape());
  EXPECT_EQ(eps.shape(), x0.shape());
}

/// A fake predictor that always predicts the exact noise that takes x toward
/// a constant image. Returning zero makes the sampler contract toward 0.
class ZeroPredictor : public NoisePredictor {
 public:
  Tensor PredictNoise(const Tensor& x, const std::vector<int64_t>&,
                      const Tensor&) const override {
    return Tensor::Zeros(x.shape());
  }
};

TEST(DiffusionTest, AncestralSamplerShapeAndFiniteness) {
  Diffusion d{DiffusionSchedule(20)};
  Rng rng(5);
  ZeroPredictor model;
  Tensor cond = Tensor::Zeros({2, 5});
  Tensor x = d.Sample(model, cond, {2, 3, 6, 6}, &rng);
  EXPECT_EQ(x.shape(), (std::vector<int64_t>{2, 3, 6, 6}));
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_TRUE(std::isfinite(x.at(i)));
}

TEST(DiffusionTest, StridedSamplerShapeAndDeterminismGivenSeed) {
  Diffusion d{DiffusionSchedule(100)};
  ZeroPredictor model;
  Tensor cond = Tensor::Zeros({1, 5});
  Rng rng1(7), rng2(7);
  Tensor a = d.SampleStrided(model, cond, {1, 3, 5, 5}, 10, &rng1);
  Tensor b = d.SampleStrided(model, cond, {1, 3, 5, 5}, 10, &rng2);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a.at(i), b.at(i));
}

TEST(DiffusionTest, StridedWithZeroNoisePredictionRecoversScaledStart) {
  // With eps_theta = 0, DDIM computes x0_hat = x / sqrt(ab) and re-scales;
  // the final output equals x_N / sqrt(ab_N) exactly after the single step.
  Diffusion d{DiffusionSchedule(100)};
  ZeroPredictor model;
  Tensor cond = Tensor::Zeros({1, 5});
  Rng rng(8);
  Tensor x = d.SampleStrided(model, cond, {1, 3, 4, 4}, 1, &rng);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_TRUE(std::isfinite(x.at(i)));
}

/// A nontrivial batch-invariant predictor: per-sample elementwise scaling
/// plus a per-sample condition shift, so batched and single-sample calls
/// exercise the condition routing as well as the noise streams.
class AffinePredictor : public NoisePredictor {
 public:
  Tensor PredictNoise(const Tensor& x, const std::vector<int64_t>&,
                      const Tensor& cond) const override {
    Tensor out = Tensor::Empty(x.shape());
    int64_t b = x.size(0);
    int64_t per = x.numel() / b;
    for (int64_t i = 0; i < b; ++i) {
      float shift = 0.1f * cond.at(i * cond.size(1));
      for (int64_t j = 0; j < per; ++j) {
        out.data()[i * per + j] = 0.5f * x.data()[i * per + j] + shift;
      }
    }
    return out;
  }
};

/// Batch-vs-single equivalence: sampling B=4 in one call must be bitwise
/// identical to four B=1 calls drawn from the same parent RNG (the
/// serving-path property EstimateBatch/QueryBatch rely on).
TEST(DiffusionTest, AncestralBatchMatchesSingleSlices) {
  Diffusion d{DiffusionSchedule(15)};
  AffinePredictor model;
  Tensor cond = Tensor::Empty({4, 5});
  Rng cond_rng(11);
  for (int64_t i = 0; i < cond.numel(); ++i) {
    cond.at(i) = static_cast<float>(cond_rng.Uniform(-1, 1));
  }
  Rng rng_batch(21), rng_single(21);
  Tensor batched = d.Sample(model, cond, {4, 3, 5, 5}, &rng_batch);
  int64_t per = batched.numel() / 4;
  for (int64_t i = 0; i < 4; ++i) {
    Tensor ci = Tensor::Empty({1, 5});
    for (int64_t j = 0; j < 5; ++j) ci.at(j) = cond.at(i * 5 + j);
    Tensor single = d.Sample(model, ci, {1, 3, 5, 5}, &rng_single);
    for (int64_t j = 0; j < per; ++j) {
      ASSERT_EQ(batched.at(i * per + j), single.at(j))
          << "sample " << i << " element " << j;
    }
  }
}

TEST(DiffusionTest, StridedBatchMatchesSingleSlices) {
  Diffusion d{DiffusionSchedule(60)};
  AffinePredictor model;
  Tensor cond = Tensor::Empty({4, 5});
  Rng cond_rng(12);
  for (int64_t i = 0; i < cond.numel(); ++i) {
    cond.at(i) = static_cast<float>(cond_rng.Uniform(-1, 1));
  }
  Rng rng_batch(22), rng_single(22);
  Tensor batched = d.SampleStrided(model, cond, {4, 3, 5, 5}, 8, &rng_batch);
  int64_t per = batched.numel() / 4;
  for (int64_t i = 0; i < 4; ++i) {
    Tensor ci = Tensor::Empty({1, 5});
    for (int64_t j = 0; j < 5; ++j) ci.at(j) = cond.at(i * 5 + j);
    Tensor single = d.SampleStrided(model, ci, {1, 3, 5, 5}, 8, &rng_single);
    for (int64_t j = 0; j < per; ++j) {
      ASSERT_EQ(batched.at(i * per + j), single.at(j))
          << "sample " << i << " element " << j;
    }
  }
}

/// Counts PredictNoise calls, those made with grad mode on and those given
/// more than one sample, from whichever thread makes them.
class GradModeProbe : public NoisePredictor {
 public:
  Tensor PredictNoise(const Tensor& x, const std::vector<int64_t>&,
                      const Tensor&) const override {
    calls_++;
    if (GradModeEnabled()) grad_enabled_calls_++;
    if (x.size(0) > 1) multi_sample_calls_++;
    return Tensor::Zeros(x.shape());
  }

  int calls() const { return calls_.load(); }
  int grad_enabled_calls() const { return grad_enabled_calls_.load(); }
  int multi_sample_calls() const { return multi_sample_calls_.load(); }

 private:
  mutable std::atomic<int> calls_{0};
  mutable std::atomic<int> grad_enabled_calls_{0};
  mutable std::atomic<int> multi_sample_calls_{0};
};

TEST(DiffusionTest, SamplersRunWithoutBuildingGraphs) {
  Diffusion d{DiffusionSchedule(10)};
  ZeroPredictor model;
  Tensor cond = Tensor::Zeros({1, 5});
  Rng rng(9);
  Tensor x = d.Sample(model, cond, {1, 3, 4, 4}, &rng);
  EXPECT_EQ(x.grad_fn(), nullptr);

  // Grad mode is thread-local: with b=4 on a four-thread pool the batch is
  // sliced, and slices on pool threads must disable it themselves.
  ThreadPool::ResetGlobalForTesting(4);
  GradModeProbe probe;
  Tensor cond4 = Tensor::Zeros({4, 5});
  Rng rng4(10);
  EXPECT_EQ(d.Sample(probe, cond4, {4, 3, 4, 4}, &rng4).grad_fn(), nullptr);
  EXPECT_EQ(d.SampleStrided(probe, cond4, {4, 3, 4, 4}, 5, &rng4).grad_fn(),
            nullptr);
  ThreadPool::ResetGlobalForTesting();
  EXPECT_EQ(probe.calls(), 4 * (10 + 5));
  EXPECT_EQ(probe.grad_enabled_calls(), 0);
  EXPECT_EQ(probe.multi_sample_calls(), 0) << "the batch was not sliced";
}

}  // namespace
}  // namespace dot
