// Forward-value and gradient-check tests for every differentiable op.

#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "tensor/gemm_kernel.h"
#include "tensor/nn.h"
#include "tensor/ops_internal.h"
#include "tensor/tensor.h"

namespace dot {
namespace {

using dot::testing::ExpectGradientsMatch;

Tensor SmallRand(std::vector<int64_t> shape, uint64_t seed, float lo = -1.f,
                 float hi = 1.f) {
  Rng rng(seed);
  return Tensor::Rand(std::move(shape), &rng, lo, hi);
}

// ---- Forward values -----------------------------------------------------------

TEST(OpsForward, AddSubMulDiv) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {4, 5, 6});
  EXPECT_FLOAT_EQ(Add(a, b).at(1), 7.0f);
  EXPECT_FLOAT_EQ(Sub(a, b).at(1), -3.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).at(2), 18.0f);
  EXPECT_FLOAT_EQ(Div(b, a).at(2), 2.0f);
}

TEST(OpsForward, BroadcastBiasAdd) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor y = Add(x, b);
  EXPECT_FLOAT_EQ(y.at(0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(5), 36.0f);
}

TEST(OpsForward, BroadcastScalarLike) {
  Tensor x = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::FromVector({1}, {5});
  Tensor y = Mul(x, s);
  EXPECT_FLOAT_EQ(y.at(3), 20.0f);
}

TEST(OpsForward, BroadcastColumnAgainstRow) {
  Tensor col = Tensor::FromVector({3, 1}, {1, 2, 3});
  Tensor row = Tensor::FromVector({1, 4}, {10, 20, 30, 40});
  Tensor y = Add(col, row);  // outer sum, [3, 4]
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 4}));
  EXPECT_FLOAT_EQ(y.at(0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(11), 43.0f);
}

TEST(OpsForward, UnaryValues) {
  Tensor x = Tensor::FromVector({2}, {0.0f, 1.0f});
  EXPECT_FLOAT_EQ(Exp(x).at(1), std::exp(1.0f));
  EXPECT_FLOAT_EQ(Sigmoid(x).at(0), 0.5f);
  EXPECT_FLOAT_EQ(Tanh(x).at(0), 0.0f);
  EXPECT_FLOAT_EQ(Relu(Tensor::FromVector({2}, {-1, 2})).at(0), 0.0f);
  EXPECT_NEAR(Gelu(x).at(1), 0.8412f, 1e-3);
  EXPECT_FLOAT_EQ(Abs(Tensor::FromVector({1}, {-3})).at(0), 3.0f);
}

TEST(OpsForward, ReshapeInfersDim) {
  Tensor x = Tensor::Arange(12);
  Tensor y = Reshape(x, {3, -1});
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 4}));
  EXPECT_FLOAT_EQ(y.at(11), 11.0f);
}

TEST(OpsForward, PermuteMatchesManualTranspose) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = Transpose2D(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 2}));
  // y[i][j] == x[j][i]
  EXPECT_FLOAT_EQ(y.at(0 * 2 + 1), 4.0f);
  EXPECT_FLOAT_EQ(y.at(2 * 2 + 0), 3.0f);
}

TEST(OpsForward, Permute3D) {
  Tensor x = Tensor::Arange(24);
  x = Reshape(x, {2, 3, 4});
  Tensor y = Permute(x, {2, 0, 1});
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{4, 2, 3}));
  // y[k][i][j] = x[i][j][k]; check y[1][1][2] == x[1][2][1] = 1*12+2*4+1 = 21
  EXPECT_FLOAT_EQ(y.at((1 * 2 + 1) * 3 + 2), 21.0f);
}

TEST(OpsForward, ConcatAxis0And1) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({1, 2}, {3, 4});
  Tensor c0 = Concat({a, b}, 0);
  EXPECT_EQ(c0.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_FLOAT_EQ(c0.at(3), 4.0f);
  Tensor c1 = Concat({a, b}, 1);
  EXPECT_EQ(c1.shape(), (std::vector<int64_t>{1, 4}));
  EXPECT_FLOAT_EQ(c1.at(2), 3.0f);
}

TEST(OpsForward, SliceMiddle) {
  Tensor x = Tensor::Arange(10);
  Tensor y = Slice(x, 0, 3, 4);
  EXPECT_EQ(y.numel(), 4);
  EXPECT_FLOAT_EQ(y.at(0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(3), 6.0f);
}

TEST(OpsForward, SliceAlongLastAxis) {
  Tensor x = Reshape(Tensor::Arange(12), {3, 4});
  Tensor y = Slice(x, 1, 1, 2);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(5), 10.0f);
}

TEST(OpsForward, RowsGather) {
  Tensor table = Reshape(Tensor::Arange(6), {3, 2});
  Tensor y = Rows(table, {2, 0, 2});
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(2), 0.0f);
  EXPECT_FLOAT_EQ(y.at(5), 5.0f);
}

TEST(OpsForward, Reductions) {
  Tensor x = Reshape(Tensor::Arange(6), {2, 3});  // [[0,1,2],[3,4,5]]
  EXPECT_FLOAT_EQ(Sum(x).item(), 15.0f);
  EXPECT_FLOAT_EQ(Mean(x).item(), 2.5f);
  Tensor s0 = SumAxis(x, 0);
  EXPECT_EQ(s0.shape(), (std::vector<int64_t>{3}));
  EXPECT_FLOAT_EQ(s0.at(0), 3.0f);
  Tensor m1 = MeanAxis(x, 1);
  EXPECT_EQ(m1.shape(), (std::vector<int64_t>{2}));
  EXPECT_FLOAT_EQ(m1.at(1), 4.0f);
  Tensor k = SumAxis(x, 1, /*keepdim=*/true);
  EXPECT_EQ(k.shape(), (std::vector<int64_t>{2, 1}));
}

TEST(OpsForward, MatMulKnownValues) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(2), 43.0f);
  EXPECT_FLOAT_EQ(c.at(3), 50.0f);
}

TEST(OpsForward, BatchMatMulIsPerBatch) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2, 1}, {1, 1, 2, 2});
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{2, 1, 1}));
  EXPECT_FLOAT_EQ(c.at(0), 3.0f);
  EXPECT_FLOAT_EQ(c.at(1), 14.0f);
}

TEST(OpsForward, SoftmaxRowsSumToOne) {
  Tensor x = SmallRand({4, 7}, 1);
  Tensor y = Softmax(x);
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (int64_t i = 0; i < 7; ++i) {
      float v = y.at(r * 7 + i);
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(OpsForward, SoftmaxStableForLargeInputs) {
  Tensor x = Tensor::FromVector({1, 2}, {1000.0f, 1001.0f});
  Tensor y = Softmax(x);
  EXPECT_NEAR(y.at(0) + y.at(1), 1.0f, 1e-5);
  EXPECT_GT(y.at(1), y.at(0));
}

TEST(OpsForward, LayerNormNormalizes) {
  Tensor x = SmallRand({3, 8}, 2, -5, 5);
  Tensor gamma = Tensor::Ones({8});
  Tensor beta = Tensor::Zeros({8});
  Tensor y = LayerNormOp(x, gamma, beta);
  for (int64_t r = 0; r < 3; ++r) {
    float mean = 0, var = 0;
    for (int64_t i = 0; i < 8; ++i) mean += y.at(r * 8 + i);
    mean /= 8;
    for (int64_t i = 0; i < 8; ++i) {
      float d = y.at(r * 8 + i) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4);
    EXPECT_NEAR(var, 1.0f, 1e-2);
  }
}

TEST(OpsForward, GroupNormNormalizesPerGroup) {
  Tensor x = SmallRand({2, 4, 3, 3}, 3, -4, 4);
  Tensor gamma = Tensor::Ones({4});
  Tensor beta = Tensor::Zeros({4});
  Tensor y = GroupNormOp(x, gamma, beta, /*groups=*/2);
  // Each (sample, group) slab should be ~standardized.
  for (int64_t s = 0; s < 2; ++s) {
    for (int64_t g = 0; g < 2; ++g) {
      float mean = 0;
      int64_t base = (s * 4 + g * 2) * 9;
      for (int64_t i = 0; i < 18; ++i) mean += y.at(base + i);
      mean /= 18;
      EXPECT_NEAR(mean, 0.0f, 1e-4);
    }
  }
}

TEST(OpsForward, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor x = SmallRand({1, 1, 4, 4}, 4);
  Tensor w = Tensor::Ones({1, 1, 1, 1});
  Tensor y = Conv2d(x, w, Tensor(), 1, 0);
  for (int64_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(y.at(i), x.at(i));
}

TEST(OpsForward, Conv2dSumKernelWithPadding) {
  Tensor x = Tensor::Ones({1, 1, 3, 3});
  Tensor w = Tensor::Ones({1, 1, 3, 3});
  Tensor y = Conv2d(x, w, Tensor(), 1, 1);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{1, 1, 3, 3}));
  EXPECT_FLOAT_EQ(y.at(4), 9.0f);  // center sees all 9 ones
  EXPECT_FLOAT_EQ(y.at(0), 4.0f);  // corner sees 4
}

TEST(OpsForward, Conv2dStrideHalvesResolution) {
  Tensor x = Tensor::Ones({2, 3, 8, 8});
  Rng rng(5);
  Tensor w = Tensor::Randn({4, 3, 3, 3}, &rng);
  Tensor y = Conv2d(x, w, Tensor(), 2, 1);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 4, 4, 4}));
}

TEST(OpsForward, Conv2dBiasApplied) {
  Tensor x = Tensor::Zeros({1, 1, 2, 2});
  Tensor w = Tensor::Ones({2, 1, 1, 1});
  Tensor b = Tensor::FromVector({2}, {1.5f, -2.0f});
  Tensor y = Conv2d(x, w, b, 1, 0);
  EXPECT_FLOAT_EQ(y.at(0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(4), -2.0f);
}

TEST(OpsForward, AvgPoolAndUpsample) {
  Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor p = AvgPool2d(x);
  EXPECT_EQ(p.numel(), 1);
  EXPECT_FLOAT_EQ(p.at(0), 2.5f);
  Tensor u = UpsampleNearest2x(p);
  EXPECT_EQ(u.shape(), (std::vector<int64_t>{1, 1, 2, 2}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(u.at(i), 2.5f);
}

TEST(OpsForward, MseLossValue) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 2});
  EXPECT_FLOAT_EQ(MseLoss(a, b).item(), 2.0f);  // (4 + 0) / 2
}

// ---- Gradient checks ------------------------------------------------------------

TEST(OpsGrad, BinaryOpsSameShape) {
  auto a = SmallRand({2, 3}, 10);
  auto b = SmallRand({2, 3}, 11, 0.5f, 2.0f);
  ExpectGradientsMatch({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(Mul(Add(in[0], in[1]), Sub(in[0], in[1])));
  });
  ExpectGradientsMatch({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(Div(in[0], in[1]));
  });
}

TEST(OpsGrad, BroadcastGradReducesCorrectly) {
  auto x = SmallRand({2, 3}, 12);
  auto b = SmallRand({3}, 13);
  ExpectGradientsMatch({x, b}, [](const std::vector<Tensor>& in) {
    return Sum(Mul(in[0], in[1]));
  });
  auto col = SmallRand({3, 1}, 14);
  auto row = SmallRand({1, 4}, 15);
  ExpectGradientsMatch({col, row}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Add(in[0], in[1])));
  });
}

TEST(OpsGrad, UnaryChain) {
  auto x = SmallRand({6}, 16, 0.2f, 1.5f);
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Log(AddScalar(Square(in[0]), 1.0f)));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Mul(Sigmoid(in[0]), Tanh(in[0])));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Gelu(in[0]));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Silu(in[0]));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Sqrt(AddScalar(in[0], 2.0f)));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Exp(MulScalar(in[0], 0.5f)));
  });
}

TEST(OpsGrad, ShapeOps) {
  auto x = SmallRand({2, 6}, 17);
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Reshape(in[0], {3, 4})));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Transpose2D(in[0])));
  });
  auto y = SmallRand({2, 3, 4}, 18);
  ExpectGradientsMatch({y}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Permute(in[0], {2, 0, 1})));
  });
}

TEST(OpsGrad, ConcatSliceRows) {
  auto a = SmallRand({2, 3}, 19);
  auto b = SmallRand({2, 3}, 20);
  ExpectGradientsMatch({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Concat({in[0], in[1]}, 0)));
  });
  ExpectGradientsMatch({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Concat({in[0], in[1]}, 1)));
  });
  auto x = SmallRand({5, 4}, 21);
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Slice(in[0], 0, 1, 3)));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Slice(in[0], 1, 1, 2)));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(Rows(in[0], {0, 2, 2, 4})));
  });
}

TEST(OpsGrad, Reductions) {
  auto x = SmallRand({3, 4}, 22);
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Mean(Square(in[0]));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(SumAxis(in[0], 0)));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(MeanAxis(in[0], 1)));
  });
}

TEST(OpsGrad, MatMul) {
  auto a = SmallRand({3, 4}, 23);
  auto b = SmallRand({4, 2}, 24);
  ExpectGradientsMatch({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(Square(MatMul(in[0], in[1])));
  });
}

TEST(OpsGrad, BatchMatMul) {
  auto a = SmallRand({2, 3, 4}, 25);
  auto b = SmallRand({2, 4, 2}, 26);
  ExpectGradientsMatch({a, b}, [](const std::vector<Tensor>& in) {
    return Sum(Square(BatchMatMul(in[0], in[1])));
  });
}

TEST(OpsGrad, Softmax) {
  auto x = SmallRand({2, 5}, 27);
  auto w = SmallRand({2, 5}, 28);  // weights to make loss non-trivial
  ExpectGradientsMatch({x, w}, [](const std::vector<Tensor>& in) {
    return Sum(Mul(Softmax(in[0]), Square(in[1])));
  });
}

TEST(OpsGrad, LayerNorm) {
  auto x = SmallRand({3, 6}, 29, -2, 2);
  auto g = SmallRand({6}, 30, 0.5f, 1.5f);
  auto b = SmallRand({6}, 31);
  ExpectGradientsMatch(
      {x, g, b},
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LayerNormOp(in[0], in[1], in[2])));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, GroupNorm) {
  auto x = SmallRand({2, 4, 2, 2}, 32, -2, 2);
  auto g = SmallRand({4}, 33, 0.5f, 1.5f);
  auto b = SmallRand({4}, 34);
  ExpectGradientsMatch(
      {x, g, b},
      [](const std::vector<Tensor>& in) {
        return Sum(Square(GroupNormOp(in[0], in[1], in[2], 2)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, Conv2dFull) {
  auto x = SmallRand({2, 2, 5, 5}, 35);
  auto w = SmallRand({3, 2, 3, 3}, 36);
  auto b = SmallRand({3}, 37);
  ExpectGradientsMatch(
      {x, w, b},
      [](const std::vector<Tensor>& in) {
        return Mean(Square(Conv2d(in[0], in[1], in[2], 1, 1)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, Conv2dStride2NoBias) {
  auto x = SmallRand({1, 2, 6, 6}, 38);
  auto w = SmallRand({2, 2, 3, 3}, 39);
  ExpectGradientsMatch(
      {x, w},
      [](const std::vector<Tensor>& in) {
        return Mean(Square(Conv2d(in[0], in[1], Tensor(), 2, 1)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

// The stride/padding variants below gradient-check the parallel im2col /
// col2im partitioning across the index arithmetic it has to get right:
// strided output stepping, padding clamps, 1x1 kernels (row_stride indexing
// without spatial offsets) and rectangular inputs (h != w).

TEST(OpsGrad, Conv2dStride2PaddedWithBias) {
  auto x = SmallRand({2, 2, 5, 5}, 50);
  auto w = SmallRand({3, 2, 3, 3}, 51);
  auto b = SmallRand({3}, 52);
  ExpectGradientsMatch(
      {x, w, b},
      [](const std::vector<Tensor>& in) {
        return Mean(Square(Conv2d(in[0], in[1], in[2], 2, 1)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, Conv2dOneByOneKernel) {
  auto x = SmallRand({2, 3, 4, 4}, 53);
  auto w = SmallRand({2, 3, 1, 1}, 54);
  ExpectGradientsMatch(
      {x, w},
      [](const std::vector<Tensor>& in) {
        return Mean(Square(Conv2d(in[0], in[1], Tensor(), 1, 0)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, Conv2dWidePadding) {
  // Padding of 2 with a 3x3 kernel: output larger than input, boundary
  // rows/cols read entirely from the zero pad.
  auto x = SmallRand({1, 2, 4, 4}, 55);
  auto w = SmallRand({2, 2, 3, 3}, 56);
  ExpectGradientsMatch(
      {x, w},
      [](const std::vector<Tensor>& in) {
        return Mean(Square(Conv2d(in[0], in[1], Tensor(), 1, 2)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, Conv2dRectangularInput) {
  auto x = SmallRand({2, 2, 4, 6}, 57);
  auto w = SmallRand({2, 2, 3, 3}, 58);
  auto b = SmallRand({2}, 59);
  ExpectGradientsMatch(
      {x, w, b},
      [](const std::vector<Tensor>& in) {
        return Mean(Square(Conv2d(in[0], in[1], in[2], 1, 1)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, GroupNormSingleGroup) {
  auto x = SmallRand({2, 4, 2, 2}, 60, -2, 2);
  auto g = SmallRand({4}, 61, 0.5f, 1.5f);
  auto b = SmallRand({4}, 62);
  ExpectGradientsMatch(
      {x, g, b},
      [](const std::vector<Tensor>& in) {
        return Sum(Square(GroupNormOp(in[0], in[1], in[2], 1)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, GroupNormPerChannelGroups) {
  // groups == channels (instance-norm limit): per-channel statistics.
  auto x = SmallRand({2, 4, 3, 3}, 63, -2, 2);
  auto g = SmallRand({4}, 64, 0.5f, 1.5f);
  auto b = SmallRand({4}, 65);
  ExpectGradientsMatch(
      {x, g, b},
      [](const std::vector<Tensor>& in) {
        return Sum(Square(GroupNormOp(in[0], in[1], in[2], 4)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST(OpsGrad, PoolingAndUpsample) {
  auto x = SmallRand({1, 2, 4, 4}, 40);
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(AvgPool2d(in[0])));
  });
  ExpectGradientsMatch({x}, [](const std::vector<Tensor>& in) {
    return Sum(Square(UpsampleNearest2x(in[0])));
  });
}

TEST(OpsGrad, MseLoss) {
  auto p = SmallRand({4}, 41);
  auto t = SmallRand({4}, 42);
  ExpectGradientsMatch({p, t}, [](const std::vector<Tensor>& in) {
    return MseLoss(in[0], in[1]);
  });
}

// ---- Strided-run walker: bitwise against a plain N-d index loop ---------------
// The broadcasting binary ops, AddInPlace_ and Permute walk merged strided
// runs. Each must produce exactly what a per-element N-d index loop over the
// output produces, gradients included (same accumulation order).

/// Calls fn(flat, idx) for every row-major index of `shape`.
template <typename Fn>
void ForEachIndex(const std::vector<int64_t>& shape, Fn fn) {
  std::vector<int64_t> idx(shape.size(), 0);
  for (int64_t flat = 0; flat < ShapeNumel(shape); ++flat) {
    fn(flat, idx);
    for (size_t d = shape.size(); d-- > 0;) {
      if (++idx[d] < shape[d]) break;
      idx[d] = 0;
    }
  }
}

/// Flat offset of broadcast index `idx` in a tensor of `shape`
/// (right-aligned; size-1 dims contribute nothing).
int64_t BroadcastOffset(const std::vector<int64_t>& shape,
                        const std::vector<int64_t>& idx) {
  int64_t off = 0;
  size_t lead = idx.size() - shape.size();
  for (size_t d = 0; d < shape.size(); ++d) {
    off = off * shape[d] + (shape[d] == 1 ? 0 : idx[lead + d]);
  }
  return off;
}

void ExpectBitwise(const std::vector<float>& got, const std::vector<float>& want,
                   const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

// Ranks 0-4, size-1 dims leading, middle and trailing, scalar operands and
// broadcasting on either side.
const std::pair<std::vector<int64_t>, std::vector<int64_t>> kBroadcastPairs[] = {
    {{}, {}},
    {{}, {2, 3}},
    {{1}, {4}},
    {{5}, {5}},
    {{2, 3}, {3}},
    {{3}, {2, 3}},
    {{2, 1}, {2, 3}},
    {{3, 1}, {1, 4}},
    {{1, 1, 1}, {2, 3, 4}},
    {{2, 3, 4}, {2, 1, 4}},
    {{4, 1, 3}, {1, 5, 1}},
    {{2, 3, 4, 5}, {2, 3, 4, 5}},
    {{2, 3, 4, 5}, {3, 1, 5}},
    {{2, 3, 4, 5}, {2, 3, 1, 1}},
    {{1, 3, 1, 5}, {2, 3, 4, 5}},
    {{2, 1, 4, 1}, {1, 3, 1, 5}},
    {{2, 3, 4, 1}, {1}},
};

/// Random signs times powers of two in [1/4, 2]. As the upstream gradient,
/// it makes every product gout * d exact, so a gradient does not depend on
/// whether the compiler fuses that product into the add (-ffp-contract
/// decisions differ between the sanitizer and release builds); summation
/// order still shows in every rounding of the sums.
Tensor PowerOfTwoGrad(const std::vector<int64_t>& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor g = Tensor::Empty(shape);
  for (int64_t i = 0; i < g.numel(); ++i) {
    const int exp = static_cast<int>(rng.Uniform(0, 4)) - 2;
    g.at(i) = std::ldexp(rng.Bernoulli(0.5) ? -1.0f : 1.0f, exp);
  }
  return g;
}

/// Checks `op` over every broadcast pair, both operand orders, against the
/// index loop. fwd/dfa/dfb are the expressions ops_basic.cc uses, so the
/// loop computes each element exactly as the per-element walk did.
template <typename Op, typename F, typename DA, typename DB>
void CheckBinaryOp(const char* name, Op op, F fwd, DA dfa, DB dfb) {
  uint64_t seed = 500;
  for (const auto& [sa, sb] : kBroadcastPairs) {
    for (int swap = 0; swap < 2; ++swap) {
      const std::vector<int64_t>& ashape = swap ? sb : sa;
      const std::vector<int64_t>& bshape = swap ? sa : sb;
      std::string what = std::string(name) + " " +
                         ::testing::PrintToString(ashape) + " x " +
                         ::testing::PrintToString(bshape);
      Tensor a = SmallRand(ashape, ++seed, 0.5f, 2.0f).set_requires_grad(true);
      Tensor b = SmallRand(bshape, ++seed, 0.5f, 2.0f).set_requires_grad(true);
      std::vector<int64_t> oshape = internal::BroadcastShape(ashape, bshape);
      Tensor gout = PowerOfTwoGrad(oshape, ++seed);
      std::vector<float> want(static_cast<size_t>(ShapeNumel(oshape)));
      std::vector<float> want_ga(static_cast<size_t>(a.numel()), 0.0f);
      std::vector<float> want_gb(static_cast<size_t>(b.numel()), 0.0f);
      ForEachIndex(oshape, [&](int64_t flat, const std::vector<int64_t>& idx) {
        const size_t ai = static_cast<size_t>(BroadcastOffset(ashape, idx));
        const size_t bi = static_cast<size_t>(BroadcastOffset(bshape, idx));
        const float av = a.data()[ai], bv = b.data()[bi], g = gout.at(flat);
        want[static_cast<size_t>(flat)] = fwd(av, bv);
        want_ga[ai] += g * dfa(av, bv);
        want_gb[bi] += g * dfb(av, bv);
      });
      Tensor out = op(a, b);
      ASSERT_EQ(out.shape(), oshape) << what;
      ExpectBitwise(out.ToVector(), want, what + " forward");
      // d(sum(out * gout))/d(out) is exactly gout.
      Sum(Mul(out, gout)).Backward();
      ExpectBitwise(a.grad_vec(), want_ga, what + " grad a");
      ExpectBitwise(b.grad_vec(), want_gb, what + " grad b");
    }
  }
}

TEST(StridedWalk, BinaryOpsMatchIndexLoopBitwise) {
  CheckBinaryOp(
      "add", Add, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
  CheckBinaryOp(
      "sub", Sub, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
  CheckBinaryOp(
      "mul", Mul, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
  CheckBinaryOp(
      "div", Div, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

TEST(StridedWalk, AddInPlaceMatchesIndexLoopBitwise) {
  NoGradGuard guard;
  uint64_t seed = 700;
  for (const auto& [sa, sb] : kBroadcastPairs) {
    for (int swap = 0; swap < 2; ++swap) {
      const std::vector<int64_t>& ashape = swap ? sb : sa;
      const std::vector<int64_t>& bshape = swap ? sa : sb;
      if (internal::BroadcastShape(ashape, bshape) != ashape) continue;
      Tensor a = SmallRand(ashape, ++seed);
      Tensor b = SmallRand(bshape, ++seed);
      std::vector<float> want = a.ToVector();
      ForEachIndex(ashape, [&](int64_t flat, const std::vector<int64_t>& idx) {
        want[static_cast<size_t>(flat)] += b.at(BroadcastOffset(bshape, idx));
      });
      AddInPlace_(a, b);
      ExpectBitwise(a.ToVector(), want,
                    ::testing::PrintToString(ashape) + " += " +
                        ::testing::PrintToString(bshape));
    }
  }
}

TEST(StridedWalk, PermuteMatchesIndexLoopBitwise) {
  // Identity, reverse and middle permutations, with size-1 dims.
  const std::pair<std::vector<int64_t>, std::vector<int64_t>> cases[] = {
      {{}, {}},
      {{5}, {0}},
      {{3, 4}, {1, 0}},
      {{3, 1}, {1, 0}},
      {{2, 3, 4}, {0, 1, 2}},
      {{2, 3, 4}, {2, 1, 0}},
      {{2, 3, 4}, {0, 2, 1}},
      {{2, 3, 4}, {1, 0, 2}},
      {{2, 3, 4, 5}, {0, 2, 1, 3}},
      {{2, 3, 4, 5}, {3, 2, 1, 0}},
      {{2, 3, 4, 5}, {0, 1, 3, 2}},
      {{1, 4, 1, 3}, {2, 0, 3, 1}},
      {{2, 1, 3, 1}, {0, 3, 2, 1}},
  };
  uint64_t seed = 900;
  for (const auto& [shape, perm] : cases) {
    std::string what = ::testing::PrintToString(shape) + " by " +
                       ::testing::PrintToString(perm);
    Tensor a = SmallRand(shape, ++seed).set_requires_grad(true);
    std::vector<int64_t> oshape(perm.size());
    for (size_t d = 0; d < perm.size(); ++d) {
      oshape[d] = shape[static_cast<size_t>(perm[d])];
    }
    Tensor gout = SmallRand(oshape, ++seed);
    std::vector<float> want(static_cast<size_t>(a.numel()));
    std::vector<float> want_ga(static_cast<size_t>(a.numel()), 0.0f);
    ForEachIndex(oshape, [&](int64_t flat, const std::vector<int64_t>& idx) {
      std::vector<int64_t> in_idx(shape.size());
      for (size_t d = 0; d < perm.size(); ++d) {
        in_idx[static_cast<size_t>(perm[d])] = idx[d];
      }
      int64_t ai = 0;
      for (size_t d = 0; d < shape.size(); ++d) ai = ai * shape[d] + in_idx[d];
      want[static_cast<size_t>(flat)] = a.at(ai);
      want_ga[static_cast<size_t>(ai)] += gout.at(flat);
    });
    Tensor out = Permute(a, perm);
    ASSERT_EQ(out.shape(), oshape) << what;
    ExpectBitwise(out.ToVector(), want, what + " forward");
    Sum(Mul(out, gout)).Backward();
    ExpectBitwise(a.grad_vec(), want_ga, what + " grad");
  }
}

// ---- GELU's rational tanh -----------------------------------------------------

float GeluWithStdTanh(float x) {
  constexpr float kC = 0.7978845608028654f;
  constexpr float kA = 0.044715f;
  return 0.5f * x * (1.0f + std::tanh(kC * (x + kA * x * x * x)));
}

TEST(GeluTanh, WithinBoundOfTanhAcrossEveryBinade) {
  // A fixed stride through the positive float bit patterns visits every
  // binade (each holds 2^23 patterns); both signs of each are checked.
  double worst = 0;
  float worst_x = 0;
  for (uint64_t bits = 0; bits <= 0x7F800000u; bits += 4099) {
    const uint32_t u = static_cast<uint32_t>(bits);
    float x;
    std::memcpy(&x, &u, sizeof(x));
    for (float v : {x, -x}) {
      double err = std::fabs(static_cast<double>(internal::TanhApprox(v)) -
                             std::tanh(static_cast<double>(v)));
      if (err > worst) {
        worst = err;
        worst_x = v;
      }
    }
  }
  EXPECT_LE(worst, 5e-7) << "at x = " << worst_x;
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(internal::TanhApprox(inf), 1.0f);
  EXPECT_EQ(internal::TanhApprox(-inf), -1.0f);
  EXPECT_EQ(internal::TanhApprox(8.0f), 1.0f);
  EXPECT_TRUE(std::isnan(internal::TanhApprox(std::nanf(""))));
}

TEST(GeluTanh, EachElementMatchesItsLoneEvaluationBitwise) {
  // 1037 is no multiple of any vector width: elements land in the vector
  // body and in the scalar tail, and must equal a one-element evaluation.
  const int64_t n = 1037;
  Tensor x = SmallRand({n}, 77, -10.0f, 10.0f).set_requires_grad(true);
  Tensor y = Gelu(x);
  Sum(y).Backward();
  for (int64_t i = 0; i < n; ++i) {
    Tensor xi = Tensor::FromVector({1}, {x.at(i)}).set_requires_grad(true);
    Tensor yi = Gelu(xi);
    Sum(yi).Backward();
    float got = y.at(i), want = yi.at(0);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0) << "element " << i;
    float g = x.grad_vec()[static_cast<size_t>(i)], gw = xi.grad_vec()[0];
    ASSERT_EQ(std::memcmp(&g, &gw, sizeof(float)), 0) << "grad element " << i;
  }
}

TEST(GeluTanh, NonFiniteInputsMatchTheStdTanhFormula) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> in = {std::nanf(""), inf, -inf, 1e30f, -1e30f};
  Tensor y = Gelu(Tensor::FromVector({static_cast<int64_t>(in.size())}, in));
  for (size_t i = 0; i < in.size(); ++i) {
    float want = GeluWithStdTanh(in[i]);
    float got = y.at(static_cast<int64_t>(i));
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "input " << in[i];
    } else {
      EXPECT_EQ(got, want) << "input " << in[i];
    }
  }
}

// ---- Gradchecks under the blocked / SIMD GEMM kernels -------------------------
// The gradchecks above run under the process default kernel; these pin the
// blocked and SIMD engines explicitly so autograd is validated against the
// packed/tiled path, not just the naive oracle.

class ScopedGemmKernel {
 public:
  explicit ScopedGemmKernel(gemm::Kernel kernel)
      : prev_(gemm::ActiveKernel()) {
    gemm::SetKernel(kernel);
  }
  ~ScopedGemmKernel() { gemm::SetKernel(prev_); }

 private:
  gemm::Kernel prev_;
};

class KernelMatrixGrad : public ::testing::TestWithParam<gemm::Kernel> {
 protected:
  void SetUp() override {
    if (GetParam() == gemm::Kernel::kSimd && !gemm::SimdAvailable()) {
      GTEST_SKIP() << "SIMD microkernel unavailable on this CPU/build";
    }
  }
};

TEST_P(KernelMatrixGrad, Conv2d) {
  ScopedGemmKernel scoped(GetParam());
  auto x = SmallRand({2, 2, 5, 5}, 80);
  auto w = SmallRand({3, 2, 3, 3}, 81);
  auto b = SmallRand({3}, 82);
  ExpectGradientsMatch(
      {x, w, b},
      [](const std::vector<Tensor>& in) {
        return Mean(Square(Conv2d(in[0], in[1], in[2], 1, 1)));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

TEST_P(KernelMatrixGrad, LinearMatMulBias) {
  ScopedGemmKernel scoped(GetParam());
  // A Linear layer body: x @ w + b. k=17 spans microkernel edge handling.
  auto x = SmallRand({6, 17}, 83);
  auto w = SmallRand({17, 9}, 84);
  auto b = SmallRand({9}, 85);
  ExpectGradientsMatch({x, w, b}, [](const std::vector<Tensor>& in) {
    return Mean(Square(Add(MatMul(in[0], in[1]), in[2])));
  });
}

TEST_P(KernelMatrixGrad, Attention) {
  ScopedGemmKernel scoped(GetParam());
  Rng rng(86);
  nn::MultiheadAttention att(8, 2, &rng);
  auto x = SmallRand({2, 4, 8}, 87);
  ExpectGradientsMatch(
      {x},
      [&att](const std::vector<Tensor>& in) {
        return Mean(Square(att.Forward(in[0])));
      },
      /*h=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/2e-3f);
}

INSTANTIATE_TEST_SUITE_P(BlockedAndSimd, KernelMatrixGrad,
                         ::testing::Values(gemm::Kernel::kBlocked,
                                           gemm::Kernel::kSimd),
                         [](const auto& info) {
                           return std::string(gemm::KernelName(info.param));
                         });

}  // namespace
}  // namespace dot
