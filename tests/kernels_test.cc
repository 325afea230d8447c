// Property tests for the raw linear-algebra kernels against a naive
// reference implementation, plus broadcast-shape rules.

#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/ops_internal.h"

namespace dot {
namespace {

// Force a multi-worker pool before the lazily-constructed global pool is
// first touched, so the parallel GEMM/conv partitioning paths are exercised
// even on single-core CI boxes. The kernels are deterministic by
// construction, so every tolerance below is unaffected.
const bool kForceThreads = [] {
  setenv("DOT_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

struct GemmCase {
  int64_t m, k, n;
};

class GemmProperty : public ::testing::TestWithParam<GemmCase> {
 protected:
  static std::vector<float> RandomVec(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.Uniform(-1, 1));
    return v;
  }

  static std::vector<float> NaiveGemm(const std::vector<float>& a,
                                      const std::vector<float>& b, int64_t m,
                                      int64_t k, int64_t n) {
    std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0;
        for (int64_t kk = 0; kk < k; ++kk) {
          acc += static_cast<double>(a[static_cast<size_t>(i * k + kk)]) *
                 static_cast<double>(b[static_cast<size_t>(kk * n + j)]);
        }
        c[static_cast<size_t>(i * n + j)] = static_cast<float>(acc);
      }
    }
    return c;
  }
};

TEST_P(GemmProperty, MatchesNaiveReference) {
  auto [m, k, n] = GetParam();
  auto a = RandomVec(static_cast<size_t>(m * k), 1);
  auto b = RandomVec(static_cast<size_t>(k * n), 2);
  std::vector<float> c(static_cast<size_t>(m * n));
  internal::Gemm(a.data(), b.data(), c.data(), m, k, n, false);
  auto want = NaiveGemm(a, b, m, k, n);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i], 1e-3);
}

TEST_P(GemmProperty, AccumulateAddsOntoExisting) {
  auto [m, k, n] = GetParam();
  auto a = RandomVec(static_cast<size_t>(m * k), 3);
  auto b = RandomVec(static_cast<size_t>(k * n), 4);
  std::vector<float> c(static_cast<size_t>(m * n), 2.0f);
  internal::Gemm(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  auto want = NaiveGemm(a, b, m, k, n);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i] + 2.0f, 1e-3);
}

TEST_P(GemmProperty, TransposedAMatchesExplicitTranspose) {
  auto [m, k, n] = GetParam();
  // A stored [k, m]; GemmTA computes A^T * B.
  auto a_t = RandomVec(static_cast<size_t>(k * m), 5);
  auto b = RandomVec(static_cast<size_t>(k * n), 6);
  std::vector<float> c(static_cast<size_t>(m * n));
  internal::GemmTA(a_t.data(), b.data(), c.data(), m, k, n, false);
  // Build A = transpose(a_t) and compare with plain GEMM.
  std::vector<float> a(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      a[static_cast<size_t>(i * k + kk)] = a_t[static_cast<size_t>(kk * m + i)];
    }
  }
  auto want = NaiveGemm(a, b, m, k, n);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i], 1e-3);
}

TEST_P(GemmProperty, TransposedBMatchesExplicitTranspose) {
  auto [m, k, n] = GetParam();
  auto a = RandomVec(static_cast<size_t>(m * k), 7);
  // B stored [n, k]; GemmTB computes A * B^T.
  auto b_t = RandomVec(static_cast<size_t>(n * k), 8);
  std::vector<float> c(static_cast<size_t>(m * n));
  internal::GemmTB(a.data(), b_t.data(), c.data(), m, k, n, false);
  std::vector<float> b(static_cast<size_t>(k * n));
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < n; ++j) {
      b[static_cast<size_t>(kk * n + j)] = b_t[static_cast<size_t>(j * k + kk)];
    }
  }
  auto want = NaiveGemm(a, b, m, k, n);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i], 1e-3);
}

// The short-and-wide shapes (m < 64, n >= 2048) route through the
// column-parallel GEMM path used by batched conv2d.
INSTANTIATE_TEST_SUITE_P(Shapes, GemmProperty,
                         ::testing::Values(GemmCase{1, 1, 1}, GemmCase{3, 5, 2},
                                           GemmCase{16, 144, 32},
                                           GemmCase{64, 7, 65},
                                           GemmCase{5, 1, 9},
                                           GemmCase{4, 9, 2500},
                                           GemmCase{2, 33, 4096}));

struct ConvCase {
  int64_t n, c, oc, h, w, kernel, stride, pad;
  bool with_bias;
};

class ConvProperty : public ::testing::TestWithParam<ConvCase> {
 protected:
  static Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed) {
    Rng rng(seed);
    Tensor t = Tensor::Empty(std::move(shape));
    for (int64_t i = 0; i < t.numel(); ++i) {
      t.at(i) = static_cast<float>(rng.Uniform(-1, 1));
    }
    return t;
  }

  /// Direct convolution with double accumulation — no im2col, no GEMM, so
  /// a shared bug in the production lowering cannot hide here.
  static std::vector<float> NaiveConv(const Tensor& x, const Tensor& w,
                                      const Tensor& bias, const ConvCase& p,
                                      int64_t oh, int64_t ow) {
    std::vector<float> out(static_cast<size_t>(p.n * p.oc * oh * ow), 0.0f);
    for (int64_t n = 0; n < p.n; ++n) {
      for (int64_t o = 0; o < p.oc; ++o) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t xo = 0; xo < ow; ++xo) {
            double acc = p.with_bias ? bias.at(o) : 0.0;
            for (int64_t ci = 0; ci < p.c; ++ci) {
              for (int64_t ky = 0; ky < p.kernel; ++ky) {
                for (int64_t kx = 0; kx < p.kernel; ++kx) {
                  int64_t iy = y * p.stride + ky - p.pad;
                  int64_t ix = xo * p.stride + kx - p.pad;
                  if (iy < 0 || iy >= p.h || ix < 0 || ix >= p.w) continue;
                  acc += static_cast<double>(
                             x.at(((n * p.c + ci) * p.h + iy) * p.w + ix)) *
                         static_cast<double>(w.at(
                             ((o * p.c + ci) * p.kernel + ky) * p.kernel + kx));
                }
              }
            }
            out[static_cast<size_t>(((n * p.oc + o) * oh + y) * ow + xo)] =
                static_cast<float>(acc);
          }
        }
      }
    }
    return out;
  }
};

TEST_P(ConvProperty, MatchesNaiveDirectConvolution) {
  const ConvCase p = GetParam();
  Tensor x = RandomTensor({p.n, p.c, p.h, p.w}, 11);
  Tensor w = RandomTensor({p.oc, p.c, p.kernel, p.kernel}, 12);
  Tensor bias = p.with_bias ? RandomTensor({p.oc}, 13) : Tensor();
  // This checks the im2col *lowering* against direct convolution.
  NoGradGuard guard;
  Tensor y = Conv2d(x, w, bias, p.stride, p.pad);
  int64_t oh = (p.h + 2 * p.pad - p.kernel) / p.stride + 1;
  int64_t ow = (p.w + 2 * p.pad - p.kernel) / p.stride + 1;
  ASSERT_EQ(y.shape(), (std::vector<int64_t>{p.n, p.oc, oh, ow}));
  auto want = NaiveConv(x, w, bias, p, oh, ow);
  for (int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_NEAR(y.at(i), want[static_cast<size_t>(i)], 1e-4)
        << "flat index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvProperty,
    ::testing::Values(ConvCase{1, 1, 1, 5, 5, 3, 1, 1, false},
                      ConvCase{3, 2, 4, 6, 6, 3, 1, 1, true},
                      ConvCase{1, 3, 2, 7, 7, 3, 2, 1, true},
                      ConvCase{3, 2, 3, 5, 8, 3, 2, 0, false},
                      ConvCase{2, 4, 3, 4, 4, 1, 1, 0, true},
                      ConvCase{1, 2, 2, 6, 5, 1, 2, 0, false},
                      ConvCase{2, 3, 2, 4, 4, 3, 1, 2, true},
                      ConvCase{3, 8, 8, 12, 12, 3, 1, 1, true}));

// Conv2d's im2col copies each (kh, kw)'s valid block (one shifted plane for
// a stride-1 conv as wide as its input, strided rows otherwise) and
// zero-fills the padding. Fed through the same GEMM, the per-element,
// bounds-checked gather it replaced must give the same output bitwise.
TEST(Im2ColTest, ConvMatchesBoundsCheckedGatherBitwise) {
  struct Plane {
    int64_t h, w;
  };
  // H != W and odd sizes; at kernel 5, the 1x3 plane is narrower than the
  // kernel, and the 2x2 plane at pad 1, stride 2 is narrower than it even
  // padded (the output truncates to one pixel).
  const Plane planes[] = {{5, 7}, {7, 4}, {9, 9}, {1, 3}, {2, 2}};
  const int64_t n = 2, c = 3, oc = 4;
  uint64_t seed = 40;
  int checked = 0;
  NoGradGuard guard;
  for (int64_t stride : {1, 2}) {
    for (int64_t pad : {0, 1, 2}) {
      for (int64_t k : {1, 3, 5}) {
        for (const Plane& p : planes) {
          const int64_t oh = (p.h + 2 * pad - k) / stride + 1;
          const int64_t ow = (p.w + 2 * pad - k) / stride + 1;
          if (oh <= 0 || ow <= 0) continue;  // Conv2d rejects these
          SCOPED_TRACE(::testing::Message()
                       << p.h << "x" << p.w << " k" << k << " s" << stride
                       << " p" << pad);
          Rng rng(++seed);
          Tensor x = Tensor::Rand({n, c, p.h, p.w}, &rng, -1.0f, 1.0f);
          Tensor w = Tensor::Rand({oc, c, k, k}, &rng, -1.0f, 1.0f);
          Tensor bias = Tensor::Rand({oc}, &rng, -1.0f, 1.0f);
          const int64_t ohw = oh * ow, cols = n * ohw, ckk = c * k * k;
          std::vector<float> col(static_cast<size_t>(ckk * cols));
          for (int64_t b = 0; b < n; ++b) {
            for (int64_t r = 0; r < ckk; ++r) {
              const int64_t ci = r / (k * k), kh = r / k % k, kw = r % k;
              for (int64_t y = 0; y < oh; ++y) {
                for (int64_t xo = 0; xo < ow; ++xo) {
                  const int64_t iy = y * stride + kh - pad;
                  const int64_t ix = xo * stride + kw - pad;
                  const bool inside = iy >= 0 && iy < p.h && ix >= 0 && ix < p.w;
                  col[static_cast<size_t>(r * cols + b * ohw + y * ow + xo)] =
                      inside ? x.at(((b * c + ci) * p.h + iy) * p.w + ix) : 0.0f;
                }
              }
            }
          }
          std::vector<float> tmp(static_cast<size_t>(oc * cols));
          internal::Gemm(w.data(), col.data(), tmp.data(), oc, ckk, cols, false);
          std::vector<float> want(static_cast<size_t>(n * oc * ohw));
          for (int64_t b = 0; b < n; ++b) {
            for (int64_t o = 0; o < oc; ++o) {
              for (int64_t j = 0; j < ohw; ++j) {
                want[static_cast<size_t>((b * oc + o) * ohw + j)] =
                    tmp[static_cast<size_t>(o * cols + b * ohw + j)] + bias.at(o);
              }
            }
          }
          Tensor got = Conv2d(x, w, bias, stride, pad);
          ASSERT_EQ(got.numel(), static_cast<int64_t>(want.size()));
          ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
                    0);
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 79);  // the grid minus the shapes Conv2d rejects
}

TEST(BroadcastShapeTest, Rules) {
  using internal::BroadcastShape;
  EXPECT_EQ(BroadcastShape({2, 3}, {2, 3}), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(BroadcastShape({2, 3}, {3}), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(BroadcastShape({2, 1}, {1, 4}), (std::vector<int64_t>{2, 4}));
  EXPECT_EQ(BroadcastShape({1}, {5, 5}), (std::vector<int64_t>{5, 5}));
  EXPECT_EQ(BroadcastShape({4, 1, 6}, {2, 6}), (std::vector<int64_t>{4, 2, 6}));
}

TEST(BatchMatMulVsLoop, Consistency) {
  Rng rng(9);
  Tensor a = Tensor::Randn({3, 4, 5}, &rng);
  Tensor b = Tensor::Randn({3, 5, 2}, &rng);
  NoGradGuard guard;
  Tensor c = BatchMatMul(a, b);
  for (int64_t i = 0; i < 3; ++i) {
    Tensor ai = Slice(a, 0, i, 1);
    Tensor bi = Slice(b, 0, i, 1);
    Tensor ci = MatMul(Reshape(ai, {4, 5}), Reshape(bi, {5, 2}));
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(c.at(i * 8 + j), ci.at(j), 1e-4);
    }
  }
}

}  // namespace
}  // namespace dot
