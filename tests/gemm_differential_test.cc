// Differential harness for the GEMM kernel engine: every kernel
// (naive/blocked/simd) x every layout (NN/TA/TB) over a seeded shape grid —
// degenerate dims, non-multiples of the block size, tall-skinny, short-wide,
// and fuzzed random shapes — checked against a double-precision reference
// and against each other.
//
// Tolerance policy (DESIGN.md §5e): for C[i,j] = sum_p A[i,p] * B[p,j],
// float accumulation of k terms carries a worst-case relative error of about
// k * eps against the magnitude sum S[i,j] = sum_p |A[i,p]| |B[p,j]|. The
// kernels only reassociate the sum (cache blocking changes the grouping, FMA
// contracts the rounding), so every kernel satisfies
//
//     |c[i,j] - cref[i,j]| <= (k + 8) * eps * S[i,j]        (vs double ref)
//     |c1[i,j] - c2[i,j]| <= 2 * (k + 8) * eps * S[i,j]     (cross-kernel)
//
// with eps = 2^-24 and the +8 absorbing the final rounding and padded-lane
// bookkeeping. On well-conditioned elements (S comparable to |cref|, i.e.
// little cancellation) the same bound is also asserted in ULPs.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm_kernel.h"
#include "tensor/ops_internal.h"
#include "util/rng.h"

namespace dot {
namespace {

constexpr double kEps = 1.0 / (1 << 24);  // 2^-24, float unit roundoff

struct Shape {
  int64_t m, k, n;
};

std::string ShapeName(const Shape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
         std::to_string(s.n);
}

// The fixed part of the grid. Block-size edges target MR=8, NR∈{8,32},
// KC=256, MC=128, NC=2048 (one below / exact / one above); the named shapes
// mirror the real call sites (im2col conv, attention, FC).
const Shape kFixedShapes[] = {
    // degenerate and near-degenerate
    {1, 1, 1},
    {1, 7, 1},
    {2, 1, 2},
    // microkernel edges (MR/NR boundaries)
    {7, 5, 7},
    {8, 5, 8},
    {9, 5, 9},
    {7, 3, 31},
    {8, 3, 32},
    {9, 3, 33},
    {15, 17, 16},
    {16, 16, 17},
    {17, 15, 15},
    // KC/MC boundaries
    {8, 255, 8},
    {8, 256, 8},
    {8, 257, 8},
    {127, 19, 9},
    {128, 19, 9},
    {129, 19, 9},
    {63, 65, 127},
    // tall-skinny / short-wide
    {301, 7, 3},
    {3, 9, 517},
    {2, 300, 2},
    // NC boundary: a second column block, with m < MR and k < KC, and with
    // m > MR and k > KC (pack buffers sized to the operands)
    {3, 5, 2049},
    {9, 257, 2085},
    // real call-site shapes (scaled-down conv / attention / FC)
    {16, 144, 1037},
    {29, 16, 29},
    {64, 96, 40},
};

const gemm::Layout kLayouts[] = {gemm::Layout::kNN, gemm::Layout::kTA,
                                 gemm::Layout::kTB};

const char* LayoutName(gemm::Layout layout) {
  switch (layout) {
    case gemm::Layout::kNN:
      return "NN";
    case gemm::Layout::kTA:
      return "TA";
    case gemm::Layout::kTB:
      return "TB";
  }
  return "?";
}

// op(A)/op(B) element accessors shared by the reference and the bound.
double RefA(const std::vector<float>& a, gemm::Layout layout, int64_t m,
            int64_t k, int64_t i, int64_t p) {
  return layout == gemm::Layout::kTA ? a[static_cast<size_t>(p * m + i)]
                                     : a[static_cast<size_t>(i * k + p)];
}

double RefB(const std::vector<float>& b, gemm::Layout layout, int64_t k,
            int64_t n, int64_t p, int64_t j) {
  return layout == gemm::Layout::kTB ? b[static_cast<size_t>(j * k + p)]
                                     : b[static_cast<size_t>(p * n + j)];
}

/// Double-precision reference product and per-element magnitude sums S.
void ReferenceGemm(const std::vector<float>& a, const std::vector<float>& b,
                   gemm::Layout layout, int64_t m, int64_t k, int64_t n,
                   std::vector<double>* cref, std::vector<double>* mag) {
  cref->assign(static_cast<size_t>(m * n), 0.0);
  mag->assign(static_cast<size_t>(m * n), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0, s = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        double av = RefA(a, layout, m, k, i, p);
        double bv = RefB(b, layout, k, n, p, j);
        acc += av * bv;
        s += std::fabs(av) * std::fabs(bv);
      }
      (*cref)[static_cast<size_t>(i * n + j)] = acc;
      (*mag)[static_cast<size_t>(i * n + j)] = s;
    }
  }
}

int64_t UlpDistance(float x, float y) {
  // Monotone mapping of floats onto int32 so ULP distance is a subtraction.
  auto key = [](float v) {
    int32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits >= 0 ? static_cast<int64_t>(bits)
                     : std::numeric_limits<int32_t>::min() -
                           static_cast<int64_t>(bits);
  };
  return std::llabs(key(x) - key(y));
}

std::vector<float> RandomVec(int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(count));
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

void CheckShape(gemm::Kernel kernel, gemm::Layout layout, const Shape& s,
                bool accumulate, uint64_t seed) {
  SCOPED_TRACE(std::string(gemm::KernelName(kernel)) + "/" +
               LayoutName(layout) + "/" + ShapeName(s) +
               (accumulate ? "/acc" : "") + "/seed" + std::to_string(seed));
  const int64_t m = s.m, k = s.k, n = s.n;
  std::vector<float> a = RandomVec(m * k, seed);
  std::vector<float> b = RandomVec(k * n, seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<float> c0 = RandomVec(m * n, seed ^ 0xda3e39cb94b95bdbull);

  std::vector<double> cref, mag;
  ReferenceGemm(a, b, layout, m, k, n, &cref, &mag);

  std::vector<float> c = c0;
  gemm::Run(kernel, layout, a.data(), b.data(), c.data(), m, k, n, accumulate);

  const double bound_scale = (static_cast<double>(k) + 8.0) * kEps;
  const int64_t ulp_bound = 32 * (k + 8);
  for (int64_t i = 0; i < m * n; ++i) {
    const size_t idx = static_cast<size_t>(i);
    double expected = cref[idx] + (accumulate ? c0[idx] : 0.0f);
    double s_mag = mag[idx] + (accumulate ? std::fabs(c0[idx]) : 0.0);
    double err = std::fabs(static_cast<double>(c[idx]) - expected);
    ASSERT_LE(err, bound_scale * s_mag + 1e-30)
        << "element " << i << ": got " << c[idx] << " want " << expected
        << " (mag sum " << s_mag << ")";
    // ULP bound only where the sum is well conditioned: heavy cancellation
    // legitimately loses relative precision and is covered by the absolute
    // bound above.
    if (s_mag > 0 && std::fabs(expected) > 0.25 * s_mag) {
      ASSERT_LE(UlpDistance(c[idx], static_cast<float>(expected)), ulp_bound)
          << "element " << i << ": got " << c[idx] << " want " << expected;
    }
  }
}

bool KernelRunnable(gemm::Kernel kernel) {
  return kernel != gemm::Kernel::kSimd || gemm::SimdAvailable();
}

class GemmDifferential : public ::testing::TestWithParam<gemm::Kernel> {
 protected:
  void SetUp() override {
    if (!KernelRunnable(GetParam())) {
      GTEST_SKIP() << "SIMD microkernel unavailable on this CPU/build";
    }
  }
};

TEST_P(GemmDifferential, FixedShapeGridVsDoubleReference) {
  uint64_t seed = 0x5eed;
  for (const Shape& s : kFixedShapes) {
    for (gemm::Layout layout : kLayouts) {
      for (bool accumulate : {false, true}) {
        CheckShape(GetParam(), layout, s, accumulate, ++seed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(GemmDifferential, FuzzedShapesVsDoubleReference) {
  // Seeded fuzzer: dimensions biased toward block-size edges and small
  // values, deterministic across runs.
  Rng rng(20260806);
  auto fuzz_dim = [&rng]() -> int64_t {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        return rng.UniformInt(1, 9);  // tiny / microkernel edge
      case 1: {
        const int64_t base[] = {8, 16, 32, 128, 256};
        return base[rng.UniformInt(0, 4)] + rng.UniformInt(-1, 1);
      }
      default:
        return rng.UniformInt(1, 200);
    }
  };
  for (int iter = 0; iter < 24; ++iter) {
    Shape s{fuzz_dim(), fuzz_dim(), fuzz_dim()};
    gemm::Layout layout = kLayouts[rng.UniformInt(0, 2)];
    bool accumulate = rng.UniformInt(0, 1) == 1;
    CheckShape(GetParam(), layout, s, accumulate,
               static_cast<uint64_t>(rng.UniformInt(1, 1 << 30)));
    if (HasFatalFailure()) return;
  }
}

TEST_P(GemmDifferential, DegenerateDimsAndNullPointers) {
  // m/k/n ∈ {0, 1}: empty operands may be null; k==0 must zero-fill C
  // exactly when !accumulate and leave it untouched when accumulating.
  for (int64_t m : {0, 1}) {
    for (int64_t k : {0, 1}) {
      for (int64_t n : {0, 1}) {
        for (gemm::Layout layout : kLayouts) {
          for (bool accumulate : {false, true}) {
            SCOPED_TRACE(ShapeName({m, k, n}) + "/" + LayoutName(layout) +
                         (accumulate ? "/acc" : ""));
            std::vector<float> a(static_cast<size_t>(m * k), 2.0f);
            std::vector<float> b(static_cast<size_t>(k * n), 3.0f);
            std::vector<float> c(static_cast<size_t>(m * n), 7.0f);
            gemm::Run(GetParam(), layout, a.empty() ? nullptr : a.data(),
                      b.empty() ? nullptr : b.data(),
                      c.empty() ? nullptr : c.data(), m, k, n, accumulate);
            if (m == 1 && n == 1) {
              float expected = k == 0 ? (accumulate ? 7.0f : 0.0f)
                                      : (accumulate ? 13.0f : 6.0f);
              EXPECT_EQ(c[0], expected);
            }
          }
        }
      }
    }
  }
}

TEST_P(GemmDifferential, CrossKernelAgreement) {
  // Every kernel must agree with naive within 2x the reference bound.
  const Shape shapes[] = {{33, 65, 47}, {128, 256, 96}, {5, 129, 517}};
  uint64_t seed = 0xabcd;
  for (const Shape& s : shapes) {
    for (gemm::Layout layout : kLayouts) {
      SCOPED_TRACE(std::string(gemm::KernelName(GetParam())) + "/" +
                   LayoutName(layout) + "/" + ShapeName(s));
      const int64_t m = s.m, k = s.k, n = s.n;
      std::vector<float> a = RandomVec(m * k, ++seed);
      std::vector<float> b = RandomVec(k * n, seed ^ 0x2545f4914f6cdd1dull);
      std::vector<double> cref, mag;
      ReferenceGemm(a, b, layout, m, k, n, &cref, &mag);
      std::vector<float> c_ref(static_cast<size_t>(m * n));
      std::vector<float> c_kernel(static_cast<size_t>(m * n));
      gemm::Run(gemm::Kernel::kNaive, layout, a.data(), b.data(), c_ref.data(),
                m, k, n, false);
      gemm::Run(GetParam(), layout, a.data(), b.data(), c_kernel.data(), m, k,
                n, false);
      const double bound_scale = 2.0 * (static_cast<double>(k) + 8.0) * kEps;
      for (int64_t i = 0; i < m * n; ++i) {
        const size_t idx = static_cast<size_t>(i);
        double err = std::fabs(static_cast<double>(c_kernel[idx]) -
                               static_cast<double>(c_ref[idx]));
        ASSERT_LE(err, bound_scale * mag[idx] + 1e-30)
            << "element " << i << ": " << gemm::KernelName(GetParam())
            << " gives " << c_kernel[idx] << ", naive gives " << c_ref[idx];
      }
    }
  }
}

TEST_P(GemmDifferential, RepeatedRunsBitwiseIdentical) {
  // Same kernel + same inputs -> bitwise-identical output, run to run.
  const Shape s{61, 130, 45};
  std::vector<float> a = RandomVec(s.m * s.k, 11);
  std::vector<float> b = RandomVec(s.k * s.n, 22);
  for (gemm::Layout layout : kLayouts) {
    std::vector<float> c1(static_cast<size_t>(s.m * s.n));
    std::vector<float> c2(static_cast<size_t>(s.m * s.n));
    gemm::Run(GetParam(), layout, a.data(), b.data(), c1.data(), s.m, s.k,
              s.n, false);
    gemm::Run(GetParam(), layout, a.data(), b.data(), c2.data(), s.m, s.k,
              s.n, false);
    ASSERT_EQ(0, std::memcmp(c1.data(), c2.data(),
                             c1.size() * sizeof(float)))
        << LayoutName(layout);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GemmDifferential,
                         ::testing::Values(gemm::Kernel::kNaive,
                                           gemm::Kernel::kBlocked,
                                           gemm::Kernel::kSimd),
                         [](const auto& info) {
                           return std::string(gemm::KernelName(info.param));
                         });

// ---- Dispatch-level regressions (internal::Gemm* wrappers) ------------------

TEST(GemmDispatch, EmptyProductsTolerateNullPointers) {
  // The PR 3 empty-vector serialize fix, mirrored for GEMM: m*n == 0 (or
  // k == 0 with empty inputs) must not dereference anything.
  internal::Gemm(nullptr, nullptr, nullptr, 0, 5, 3, false);
  internal::Gemm(nullptr, nullptr, nullptr, 4, 7, 0, true);
  internal::GemmTA(nullptr, nullptr, nullptr, 0, 0, 0, false);
  internal::GemmTB(nullptr, nullptr, nullptr, 0, 3, 0, true);
  float c[2] = {5.0f, 5.0f};
  internal::Gemm(nullptr, nullptr, c, 1, 0, 2, false);  // k==0 zero-fills
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[1], 0.0f);
  c[0] = c[1] = 5.0f;
  internal::GemmTB(nullptr, nullptr, c, 2, 0, 1, true);  // k==0 + acc: no-op
  EXPECT_EQ(c[0], 5.0f);
  EXPECT_EQ(c[1], 5.0f);
}

TEST(GemmDispatch, KernelNamesRoundTrip) {
  for (gemm::Kernel k : {gemm::Kernel::kNaive, gemm::Kernel::kBlocked,
                         gemm::Kernel::kSimd}) {
    gemm::Kernel parsed;
    ASSERT_TRUE(gemm::ParseKernelName(gemm::KernelName(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  gemm::Kernel parsed = gemm::Kernel::kNaive;
  EXPECT_FALSE(gemm::ParseKernelName("avx9000", &parsed));
  EXPECT_FALSE(gemm::ParseKernelName(nullptr, &parsed));
  EXPECT_EQ(parsed, gemm::Kernel::kNaive);  // untouched on failure
}

TEST(GemmDispatch, SetKernelRoutesDispatchers) {
  // SetKernel changes what internal::Gemm runs; kSimd degrades to kBlocked
  // when unsupported and the return value reports the real choice.
  gemm::Kernel prev = gemm::ActiveKernel();
  gemm::Kernel got = gemm::SetKernel(gemm::Kernel::kSimd);
  if (gemm::SimdAvailable()) {
    EXPECT_EQ(got, gemm::Kernel::kSimd);
  } else {
    EXPECT_EQ(got, gemm::Kernel::kBlocked);
  }
  EXPECT_EQ(gemm::ActiveKernel(), got);

  std::vector<float> a = RandomVec(12 * 40, 3);
  std::vector<float> b = RandomVec(40 * 9, 4);
  std::vector<float> via_dispatch(12 * 9), direct(12 * 9);
  internal::Gemm(a.data(), b.data(), via_dispatch.data(), 12, 40, 9, false);
  gemm::Run(got, gemm::Layout::kNN, a.data(), b.data(), direct.data(), 12, 40,
            9, false);
  EXPECT_EQ(0, std::memcmp(via_dispatch.data(), direct.data(),
                           direct.size() * sizeof(float)));
  EXPECT_EQ(gemm::SetKernel(prev), prev);
}

}  // namespace
}  // namespace dot
