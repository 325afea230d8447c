// Tests for the stage-2 estimators, including the MViT == ViT equivalence
// property (paper Sec. 5.2: masking only changes the computation, not the
// function) and the speed advantage of the masked scheme.

#include "core/estimator.h"

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/optim.h"
#include "util/stopwatch.h"

namespace dot {
namespace {

EstimatorConfig SmallConfig(int64_t grid = 12) {
  EstimatorConfig cfg;
  cfg.grid_size = grid;
  cfg.embed_dim = 16;
  cfg.layers = 2;
  cfg.heads = 2;
  return cfg;
}

/// A PiT with a diagonal route and plausible channel values.
Pit DiagonalPit(int64_t grid, int64_t cells_visited, float tod = 0.1f) {
  Pit pit(grid);
  for (int64_t i = 0; i < std::min(grid, cells_visited); ++i) {
    pit.Set(kPitMask, i, i, 1.0f);
    pit.Set(kPitTimeOfDay, i, i, tod);
    float offset = cells_visited > 1
                       ? 2.0f * static_cast<float>(i) /
                                 static_cast<float>(cells_visited - 1) -
                             1.0f
                       : 0.0f;
    pit.Set(kPitTimeOffset, i, i, offset);
  }
  return pit;
}

TEST(EstimatorTest, MvitOutputShape) {
  Rng rng(1);
  TransformerEstimator mvit(SmallConfig(), /*masked=*/true, &rng);
  std::vector<Pit> batch = {DiagonalPit(12, 5), DiagonalPit(12, 8)};
  NoGradGuard guard;
  Tensor y = mvit.ForwardBatch(batch, {});
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 1}));
}

TEST(EstimatorTest, MvitEqualsVitOnSamePit) {
  // Build both estimators with identical weights (same seed stream) and
  // check the property the paper relies on: masked attention over packed
  // valid tokens computes the same function as full attention with a mask.
  Rng rng1(7), rng2(7);
  EstimatorConfig cfg = SmallConfig();
  TransformerEstimator mvit(cfg, /*masked=*/true, &rng1);
  TransformerEstimator vit(cfg, /*masked=*/false, &rng2);
  NoGradGuard guard;
  for (int64_t visited : {1, 3, 7, 12}) {
    Pit pit = DiagonalPit(12, visited);
    float a = mvit.ForwardBatch({pit}, {}).at(0);
    float b = vit.ForwardBatch({pit}, {}).at(0);
    EXPECT_NEAR(a, b, 5e-4) << "visited=" << visited;
  }
}

TEST(EstimatorTest, MvitFasterThanVitOnSparsePits) {
  Rng rng1(8), rng2(8);
  EstimatorConfig cfg = SmallConfig(/*grid=*/24);
  TransformerEstimator mvit(cfg, true, &rng1);
  TransformerEstimator vit(cfg, false, &rng2);
  std::vector<Pit> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(DiagonalPit(24, 12));
  NoGradGuard guard;
  // Warm up once.
  mvit.ForwardBatch(batch, {});
  vit.ForwardBatch(batch, {});
  Stopwatch sw;
  for (int i = 0; i < 3; ++i) mvit.ForwardBatch(batch, {});
  double t_mvit = sw.ElapsedSeconds();
  sw.Restart();
  for (int i = 0; i < 3; ++i) vit.ForwardBatch(batch, {});
  double t_vit = sw.ElapsedSeconds();
  // 12 valid tokens vs 576: the masked scheme must be clearly faster.
  EXPECT_LT(t_mvit, t_vit * 0.6);
}

TEST(EstimatorTest, DifferentRoutesGiveDifferentEstimates) {
  Rng rng(9);
  TransformerEstimator mvit(SmallConfig(), true, &rng);
  NoGradGuard guard;
  float a = mvit.ForwardBatch({DiagonalPit(12, 3)}, {}).at(0);
  float b = mvit.ForwardBatch({DiagonalPit(12, 11)}, {}).at(0);
  EXPECT_NE(a, b);
}

TEST(EstimatorTest, EmptyPitFallsBackGracefully) {
  Rng rng(10);
  TransformerEstimator mvit(SmallConfig(), true, &rng);
  NoGradGuard guard;
  Pit empty(12);
  Tensor y = mvit.ForwardBatch({empty}, {});
  EXPECT_TRUE(std::isfinite(y.at(0)));
}

TEST(EstimatorTest, AblationVariantsConstructAndRun) {
  Rng rng(11);
  EstimatorConfig no_ce = SmallConfig();
  no_ce.use_cell_embedding = false;
  EstimatorConfig no_st = SmallConfig();
  no_st.use_latent_cast = false;
  TransformerEstimator a(no_ce, true, &rng);
  TransformerEstimator b(no_st, true, &rng);
  NoGradGuard guard;
  Pit pit = DiagonalPit(12, 6);
  EXPECT_TRUE(std::isfinite(a.ForwardBatch({pit}, {}).at(0)));
  EXPECT_TRUE(std::isfinite(b.ForwardBatch({pit}, {}).at(0)));
  EXPECT_LT(a.NumParams(), TransformerEstimator(SmallConfig(), true, &rng).NumParams());
}

TEST(EstimatorTest, CnnShapeAndFiniteness) {
  Rng rng(12);
  CnnEstimator cnn(SmallConfig(), &rng);
  NoGradGuard guard;
  Tensor y = cnn.ForwardBatch({DiagonalPit(12, 4), DiagonalPit(12, 9)}, {});
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 1}));
  EXPECT_TRUE(std::isfinite(y.at(0)));
}

TEST(EstimatorTest, FactoryProducesRequestedKind) {
  Rng rng(13);
  auto mvit = MakeEstimator(EstimatorKind::kMvit, SmallConfig(), &rng);
  auto vit = MakeEstimator(EstimatorKind::kVit, SmallConfig(), &rng);
  auto cnn = MakeEstimator(EstimatorKind::kCnn, SmallConfig(), &rng);
  ASSERT_NE(mvit, nullptr);
  ASSERT_NE(vit, nullptr);
  ASSERT_NE(cnn, nullptr);
  auto* t1 = dynamic_cast<TransformerEstimator*>(mvit.get());
  auto* t2 = dynamic_cast<TransformerEstimator*>(vit.get());
  ASSERT_NE(t1, nullptr);
  ASSERT_NE(t2, nullptr);
  EXPECT_TRUE(t1->masked());
  EXPECT_FALSE(t2->masked());
  EXPECT_NE(dynamic_cast<CnnEstimator*>(cnn.get()), nullptr);
}

TEST(EstimatorTest, TrainingFitsTravelTimeFromPitLength) {
  // Travel time proportional to route length: a few epochs must reduce MSE
  // dramatically — the stage-2 learning sanity check.
  Rng rng(14);
  TransformerEstimator mvit(SmallConfig(), true, &rng);
  optim::Adam opt(mvit.Parameters(), 5e-3f);
  std::vector<Pit> pits;
  std::vector<float> targets;
  for (int64_t len = 2; len <= 11; ++len) {
    pits.push_back(DiagonalPit(12, len));
    targets.push_back(static_cast<float>(len) / 11.0f);  // normalized target
  }
  Tensor y = Tensor::FromVector({static_cast<int64_t>(targets.size()), 1}, targets);
  double first = 0, last = 0;
  for (int it = 0; it < 60; ++it) {
    mvit.ZeroGrad();
    Tensor loss = MseLoss(mvit.ForwardBatch(pits, {}), y);
    if (it == 0) first = loss.item();
    last = loss.item();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last, first * 0.1);
}

}  // namespace
}  // namespace dot
