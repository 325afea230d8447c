// Tests for tensor storage and the zero-copy view layer built on it:
// live-byte accounting, aliasing semantics of Reshape/Flatten/Detach/Slice,
// in-place op guards, Backward() diagnostics, and the no-leak contract of
// the reverse-diffusion sampling loop.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/diffusion.h"
#include "core/unet.h"
#include "gradcheck.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"

namespace dot {
namespace {

// ---- Accounting -------------------------------------------------------------

TEST(Storage, LiveByteAccounting) {
  const int64_t live0 = storage::GetStats().bytes_live;
  {
    Tensor t = Tensor::Zeros({100});
    storage::Stats s = storage::GetStats();
    EXPECT_EQ(s.bytes_live, live0 + 100 * static_cast<int64_t>(sizeof(float)));
    EXPECT_GE(s.high_water_bytes, s.bytes_live);
  }
  EXPECT_EQ(storage::GetStats().bytes_live, live0);
}

// ---- Aliasing semantics -----------------------------------------------------

TEST(StorageViews, ReshapeIsZeroCopyBothDirections) {
  Tensor base = Tensor::Zeros({2, 3});
  Tensor view = Reshape(base, {3, 2});
  EXPECT_TRUE(view.SharesStorageWith(base));
  view.at(0) = 42.0f;   // write through the view...
  EXPECT_EQ(base.at(0), 42.0f);  // ...visible in the base
  base.at(5) = -1.0f;   // and vice versa
  EXPECT_EQ(view.at(5), -1.0f);
}

TEST(StorageViews, FlattenAndDetachShareStorage) {
  Tensor base = Tensor::Zeros({2, 2, 2});
  Tensor flat = Flatten(base);
  EXPECT_EQ(flat.dim(), 1);
  EXPECT_EQ(flat.numel(), 8);
  EXPECT_TRUE(flat.SharesStorageWith(base));
  Tensor det = base.Detach();
  EXPECT_TRUE(det.SharesStorageWith(base));
  EXPECT_EQ(det.grad_fn(), nullptr);
  det.at(3) = 7.0f;
  EXPECT_EQ(base.at(3), 7.0f);
}

TEST(StorageViews, SliceAxis0IsViewOtherAxesCopy) {
  Tensor base = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor row = Slice(base, 0, 1, 1);  // second row: zero-copy
  EXPECT_TRUE(row.SharesStorageWith(base));
  EXPECT_EQ(row.at(0), 3.0f);
  row.at(0) = 30.0f;
  EXPECT_EQ(base.at(3), 30.0f);
  Tensor col = Slice(base, 1, 0, 2);  // inner axis: materialized copy
  EXPECT_FALSE(col.SharesStorageWith(base));
  EXPECT_EQ(col.at(2), 30.0f);
}

TEST(StorageViews, CloneIsDeepCopy) {
  Tensor base = Tensor::Full({4}, 2.0f);
  Tensor copy = base.Clone();
  EXPECT_FALSE(copy.SharesStorageWith(base));
  copy.at(0) = 9.0f;
  EXPECT_EQ(base.at(0), 2.0f);
}

TEST(StorageViews, ViewOutOfBoundsDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Tensor base = Tensor::Zeros({4});
  EXPECT_DEATH(Tensor::View(base, {4}, 1), "View out of bounds");
}

// ---- Reshape -1 inference and validation ------------------------------------

TEST(ReshapeInference, InfersSingleNegativeDim) {
  Tensor a = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(Reshape(a, {-1}).shape(), (std::vector<int64_t>{24}));
  EXPECT_EQ(Reshape(a, {2, -1}).shape(), (std::vector<int64_t>{2, 12}));
  EXPECT_EQ(Reshape(a, {-1, 4}).shape(), (std::vector<int64_t>{6, 4}));
  EXPECT_EQ(Reshape(a, {2, -1, 2}).shape(), (std::vector<int64_t>{2, 6, 2}));
}

TEST(ReshapeInference, BadShapesDieWithBothShapesInMessage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Tensor a = Tensor::Zeros({2, 3});
  EXPECT_DEATH(Reshape(a, {4, 2}), "\\[2, 3\\].*\\[4, 2\\]");
  EXPECT_DEATH(Reshape(a, {-1, -1}), "multiple -1 dims");
  EXPECT_DEATH(Reshape(a, {-1, 4}), "does not divide into");
  EXPECT_DEATH(Reshape(a, {2, -3}), "invalid dim");
}

// ---- Backward() diagnostics and NoGradGuard ---------------------------------

TEST(BackwardDiagnostics, NoGradTensorDiesWithClearMessage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Tensor a = Tensor::Ones({3}).set_requires_grad(true);
  Tensor loss;
  {
    NoGradGuard guard;
    loss = Mean(Square(a));  // no graph recorded
  }
  EXPECT_DEATH(loss.Backward(), "NoGradGuard");
}

TEST(BackwardDiagnostics, NonScalarDiesWithShape) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Tensor a = Tensor::Ones({2, 3}).set_requires_grad(true);
  Tensor y = MulScalar(a, 2.0f);
  EXPECT_DEATH(y.Backward(), "scalar.*\\[2, 3\\]");
}

TEST(NoGradGuard, NestsAndRestores) {
  EXPECT_TRUE(GradModeEnabled());
  {
    NoGradGuard outer;
    EXPECT_FALSE(GradModeEnabled());
    {
      NoGradGuard inner;
      EXPECT_FALSE(GradModeEnabled());
    }
    // Inner exit must restore the outer guard's state, not re-enable.
    EXPECT_FALSE(GradModeEnabled());
  }
  EXPECT_TRUE(GradModeEnabled());
}

// ---- In-place ops -----------------------------------------------------------

TEST(InPlaceOps, MatchFunctionalOpsBitwise) {
  NoGradGuard guard;
  Rng rng(3);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor b = Tensor::Randn({2, 3, 4}, &rng);
  Tensor c = Tensor::Randn({3, 1}, &rng);  // broadcast over dims 0 and 2
  Tensor want_add = Add(a, b);
  Tensor want_bcast = Add(a, c);
  Tensor want_scale = MulScalar(a, 0.37f);

  Tensor t1 = a.Clone();
  AddInPlace_(t1, b);
  Tensor t2 = a.Clone();
  AddInPlace_(t2, c);
  Tensor t3 = a.Clone();
  Scale_(t3, 0.37f);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(t1.at(i), want_add.at(i));
    EXPECT_EQ(t2.at(i), want_bcast.at(i));
    EXPECT_EQ(t3.at(i), want_scale.at(i));
  }
}

TEST(InPlaceOps, DieWhileAutogradRecords) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Tensor a = Tensor::Ones({3});
  Tensor b = Tensor::Ones({3});
  EXPECT_DEATH(AddInPlace_(a, b), "autograd is recording");
  EXPECT_DEATH(Scale_(a, 2.0f), "autograd is recording");
}

TEST(InPlaceOps, ShapeChangingBroadcastDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  NoGradGuard guard;
  Tensor a = Tensor::Ones({1, 3});
  Tensor b = Tensor::Ones({2, 3});
  EXPECT_DEATH(AddInPlace_(a, b), "change the target shape");
}

TEST(InPlaceOps, ReuseHelpersPickPathByGradMode) {
  // Recording: AddReuse must behave like Add (fresh output, graph attached).
  Tensor a = Tensor::Ones({3}).set_requires_grad(true);
  Tensor b = Tensor::Full({3}, 2.0f);
  Tensor out = AddReuse(a, b);
  EXPECT_FALSE(out.SharesStorageWith(a));
  ASSERT_NE(out.grad_fn(), nullptr);
  Mean(out).Backward();
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a.grad_vec()[static_cast<size_t>(i)], 1.0f / 3.0f, 1e-6f);
  }
  // Inference: the input buffer is reused.
  NoGradGuard guard;
  Tensor c = Tensor::Ones({3});
  Tensor reused = AddReuse(c, b);
  EXPECT_TRUE(reused.SharesStorageWith(c));
  EXPECT_EQ(reused.at(0), 3.0f);
  Tensor scaled = ScaleReuse(c, 2.0f);
  EXPECT_TRUE(scaled.SharesStorageWith(c));
}

// ---- Gradchecks through the view layer --------------------------------------

TEST(ViewGradcheck, ReshapeSliceConcat) {
  Rng rng(11);
  Tensor a = Tensor::Randn({2, 6}, &rng);
  testing::ExpectGradientsMatch({a}, [](const std::vector<Tensor>& in) {
    return Mean(Square(Reshape(in[0], {3, -1})));
  });
  testing::ExpectGradientsMatch({a}, [](const std::vector<Tensor>& in) {
    // Axis-0 slice (zero-copy view) and axis-1 slice (copy path).
    Tensor s0 = Slice(in[0], 0, 1, 1);
    Tensor s1 = Slice(in[0], 1, 2, 3);
    return Add(Mean(Square(s0)), Mean(Square(s1)));
  });
  Tensor b = Tensor::Randn({2, 6}, &rng);
  testing::ExpectGradientsMatch({a, b}, [](const std::vector<Tensor>& in) {
    return Mean(Square(Concat({in[0], in[1]}, 0)));
  });
}

TEST(ViewGradcheck, ViewMutationVisibleThroughAutogradInputs) {
  // An op reading a view sees later writes to the base before forward runs —
  // the documented aliasing contract (views are live aliases, not snapshots).
  Tensor base = Tensor::Zeros({4});
  Tensor view = Reshape(base, {2, 2});
  base.Fill(2.0f);
  EXPECT_EQ(Sum(view).item(), 8.0f);
}

// ---- Allocation regression --------------------------------------------------

TEST(AllocationRegression, ReverseDiffusionLeaksNoTensorBytes) {
  UnetConfig cfg;
  cfg.base_channels = 8;
  cfg.levels = 2;
  cfg.cond_dim = 16;
  cfg.max_steps = 6;
  Rng rng(5);
  UnetDenoiser unet(cfg, &rng);
  Diffusion diff{DiffusionSchedule(6)};
  Tensor cond = Tensor::Zeros({1, 5});

  const int64_t live0 = storage::GetStats().bytes_live;
  for (int round = 0; round < 3; ++round) {
    Rng round_rng(7);
    Tensor x = diff.Sample(unet, cond, {1, 3, 8, 8}, &round_rng);
    EXPECT_EQ(x.numel(), 3 * 8 * 8);
  }
  EXPECT_EQ(storage::GetStats().bytes_live, live0)
      << "net live bytes grew across sampling rounds";
}

}  // namespace
}  // namespace dot
