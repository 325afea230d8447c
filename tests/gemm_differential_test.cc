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
#include "tensor/quantize.h"
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

// ---- Int8 quantized path (DESIGN.md §5j) ------------------------------------
//
// Tolerance derivation: symmetric per-channel quantization writes
// A_ip = sa_i q^a_ip + e^a_ip with |e^a_ip| <= sa_i / 2 (and likewise B
// with per-column sb_j), so the dequantized product deviates from the
// exact one by at most
//
//   |C_q[i,j] - C[i,j]| <= sum_p ( |A_ip| sb_j/2 + |B_pj| sa_i/2
//                                  + sa_i sb_j/4 )
//                        = rowabs_i sb_j/2 + colabs_j sa_i/2
//                          + k sa_i sb_j/4
//
// — a scale * k bound, NOT an eps * k bound: quantization error is the
// dominant term by orders of magnitude. The few float roundings in the
// dequant write (int32->float is exact below 2^24, then two multiplies)
// are absorbed by a 1.05 slack factor plus a 4-eps relative term. Scales
// are recomputed in-test with the same quantize.h primitives the engine
// uses, so the bound tracks the actual grid.

// Per-op(A)-row and per-op(B)-column scales, exactly as the engine
// computes them.
void OpScales(const std::vector<float>& a, const std::vector<float>& b,
              gemm::Layout layout, int64_t m, int64_t k, int64_t n,
              std::vector<float>* sa, std::vector<float>* sb) {
  sa->assign(static_cast<size_t>(m), 0.0f);
  sb->assign(static_cast<size_t>(n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* row =
        layout == gemm::Layout::kTA ? a.data() + i : a.data() + i * k;
    int64_t stride = layout == gemm::Layout::kTA ? m : 1;
    ASSERT_TRUE(quant::ChannelScale(row, k, stride, &(*sa)[i]));
  }
  for (int64_t j = 0; j < n; ++j) {
    const float* col =
        layout == gemm::Layout::kTB ? b.data() + j * k : b.data() + j;
    int64_t stride = layout == gemm::Layout::kTB ? 1 : n;
    ASSERT_TRUE(quant::ChannelScale(col, k, stride, &(*sb)[j]));
  }
}

void CheckShapeInt8(gemm::Kernel kernel, gemm::Layout layout, const Shape& s,
                    bool accumulate, uint64_t seed) {
  SCOPED_TRACE(std::string("int8/") + gemm::KernelName(kernel) + "/" +
               LayoutName(layout) + "/" + ShapeName(s) +
               (accumulate ? "/acc" : "") + "/seed" + std::to_string(seed));
  const int64_t m = s.m, k = s.k, n = s.n;
  std::vector<float> a = RandomVec(m * k, seed);
  std::vector<float> b = RandomVec(k * n, seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<float> c0 = RandomVec(m * n, seed ^ 0xda3e39cb94b95bdbull);

  std::vector<double> cref, mag;
  ReferenceGemm(a, b, layout, m, k, n, &cref, &mag);
  std::vector<float> sa, sb;
  OpScales(a, b, layout, m, k, n, &sa, &sb);

  // Row / column magnitude sums for the bound.
  std::vector<double> rowabs(static_cast<size_t>(m), 0.0);
  std::vector<double> colabs(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      rowabs[static_cast<size_t>(i)] += std::fabs(RefA(a, layout, m, k, i, p));
    }
  }
  for (int64_t j = 0; j < n; ++j) {
    for (int64_t p = 0; p < k; ++p) {
      colabs[static_cast<size_t>(j)] += std::fabs(RefB(b, layout, k, n, p, j));
    }
  }

  std::vector<float> c = c0;
  gemm::RunEx(kernel, gemm::Precision::kInt8, layout, a.data(), b.data(),
              c.data(), m, k, n, accumulate);

  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const size_t idx = static_cast<size_t>(i * n + j);
      const double sai = sa[static_cast<size_t>(i)];
      const double sbj = sb[static_cast<size_t>(j)];
      double expected = cref[idx] + (accumulate ? c0[idx] : 0.0f);
      double quant_bound = rowabs[static_cast<size_t>(i)] * sbj * 0.5 +
                           colabs[static_cast<size_t>(j)] * sai * 0.5 +
                           static_cast<double>(k) * sai * sbj * 0.25;
      double err = std::fabs(static_cast<double>(c[idx]) - expected);
      ASSERT_LE(err,
                1.05 * quant_bound + 4.0 * kEps * std::fabs(expected) + 1e-30)
          << "element (" << i << "," << j << "): got " << c[idx] << " want "
          << expected << " (quant bound " << quant_bound << ")";
    }
  }
}

class Int8Differential : public ::testing::TestWithParam<gemm::Kernel> {
 protected:
  void SetUp() override {
    if (!KernelRunnable(GetParam())) {
      GTEST_SKIP() << "SIMD microkernel unavailable on this CPU/build";
    }
  }
};

TEST_P(Int8Differential, FixedShapeGridVsExactReference) {
  // Same precision x kernel x layout x accumulate grid as the fp32 wall,
  // seeded independently.
  uint64_t seed = 0x17e8;
  for (const Shape& s : kFixedShapes) {
    for (gemm::Layout layout : kLayouts) {
      for (bool accumulate : {false, true}) {
        CheckShapeInt8(GetParam(), layout, s, accumulate, ++seed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(Int8Differential, FuzzedShapesVsExactReference) {
  Rng rng(20260807);
  auto fuzz_dim = [&rng]() -> int64_t {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        return rng.UniformInt(1, 9);
      case 1: {
        const int64_t base[] = {8, 16, 32, 128, 256};
        return base[rng.UniformInt(0, 4)] + rng.UniformInt(-1, 1);
      }
      default:
        return rng.UniformInt(1, 200);
    }
  };
  for (int iter = 0; iter < 16; ++iter) {
    Shape s{fuzz_dim(), fuzz_dim(), fuzz_dim()};
    gemm::Layout layout = kLayouts[rng.UniformInt(0, 2)];
    bool accumulate = rng.UniformInt(0, 1) == 1;
    CheckShapeInt8(GetParam(), layout, s, accumulate,
                   static_cast<uint64_t>(rng.UniformInt(1, 1 << 30)));
    if (HasFatalFailure()) return;
  }
}

TEST_P(Int8Differential, BitwiseEqualToNaiveInt8) {
  // Integer accumulation has no association order and every path
  // quantizes through the same primitives, so the int8 kernels agree
  // BITWISE with the int8 naive reference — a much stronger contract than
  // the fp32 cross-kernel tolerance. Shapes cover edge tiles (non
  // multiples of 8) on both dimensions.
  const Shape shapes[] = {{7, 23, 9}, {33, 65, 47}, {64, 256, 40},
                          {5, 129, 517}, {129, 31, 8}};
  uint64_t seed = 0xfeed;
  for (const Shape& s : shapes) {
    for (gemm::Layout layout : kLayouts) {
      for (bool accumulate : {false, true}) {
        SCOPED_TRACE(std::string("int8/") + gemm::KernelName(GetParam()) +
                     "/" + LayoutName(layout) + "/" + ShapeName(s) +
                     (accumulate ? "/acc" : ""));
        const int64_t m = s.m, k = s.k, n = s.n;
        std::vector<float> a = RandomVec(m * k, ++seed);
        std::vector<float> b = RandomVec(k * n, seed ^ 0x2545f4914f6cdd1dull);
        std::vector<float> c0 = RandomVec(m * n, seed ^ 0x7777);
        std::vector<float> c_naive = c0, c_kernel = c0;
        gemm::RunEx(gemm::Kernel::kNaive, gemm::Precision::kInt8, layout,
                    a.data(), b.data(), c_naive.data(), m, k, n, accumulate);
        gemm::RunEx(GetParam(), gemm::Precision::kInt8, layout, a.data(),
                    b.data(), c_kernel.data(), m, k, n, accumulate);
        ASSERT_EQ(0, std::memcmp(c_naive.data(), c_kernel.data(),
                                 c_naive.size() * sizeof(float)));
      }
    }
  }
}

TEST_P(Int8Differential, DegenerateDimsAndNullPointers) {
  // The quantized path must keep the engine's degenerate-dim contract:
  // m==0 / n==0 return, k==0 zero-fills only when !accumulate, null
  // pointers allowed for empty operands. k==1 exercises the odd-k pad.
  for (int64_t m : {0, 1}) {
    for (int64_t k : {0, 1}) {
      for (int64_t n : {0, 1}) {
        for (gemm::Layout layout : kLayouts) {
          for (bool accumulate : {false, true}) {
            SCOPED_TRACE(std::string("int8/") + ShapeName({m, k, n}) + "/" +
                         LayoutName(layout) + (accumulate ? "/acc" : ""));
            std::vector<float> a(static_cast<size_t>(m * k), 2.0f);
            std::vector<float> b(static_cast<size_t>(k * n), 3.0f);
            std::vector<float> c(static_cast<size_t>(m * n), 7.0f);
            gemm::RunEx(GetParam(), gemm::Precision::kInt8, layout,
                        a.empty() ? nullptr : a.data(),
                        b.empty() ? nullptr : b.data(),
                        c.empty() ? nullptr : c.data(), m, k, n, accumulate);
            if (m == 1 && n == 1) {
              // k==1: both operands are their channel's extreme element,
              // so they quantize exactly and 2*3 is exact in int8 too.
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

TEST_P(Int8Differential, NonFiniteOperandFallsBackToFp32) {
  // A NaN/Inf anywhere in either operand refuses quantization; the call
  // must produce exactly what the fp32 kernel produces.
  const int64_t m = 9, k = 17, n = 11;
  for (int which : {0, 1}) {
    for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                      std::numeric_limits<float>::infinity()}) {
      std::vector<float> a = RandomVec(m * k, 91);
      std::vector<float> b = RandomVec(k * n, 92);
      (which == 0 ? a[5] : b[7]) = bad;
      std::vector<float> c_q(static_cast<size_t>(m * n));
      std::vector<float> c_f(static_cast<size_t>(m * n));
      gemm::RunEx(GetParam(), gemm::Precision::kInt8, gemm::Layout::kNN,
                  a.data(), b.data(), c_q.data(), m, k, n, false);
      gemm::Run(GetParam(), gemm::Layout::kNN, a.data(), b.data(), c_f.data(),
                m, k, n, false);
      ASSERT_EQ(0, std::memcmp(c_q.data(), c_f.data(),
                               c_q.size() * sizeof(float)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, Int8Differential,
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

TEST(GemmDispatch, PrecisionNamesRoundTrip) {
  for (gemm::Precision p : {gemm::Precision::kFp32, gemm::Precision::kInt8}) {
    gemm::Precision parsed;
    ASSERT_TRUE(gemm::ParsePrecisionName(gemm::PrecisionName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  gemm::Precision parsed = gemm::Precision::kFp32;
  EXPECT_FALSE(gemm::ParsePrecisionName("fp16", &parsed));
  EXPECT_FALSE(gemm::ParsePrecisionName(nullptr, &parsed));
  EXPECT_EQ(parsed, gemm::Precision::kFp32);  // untouched on failure
}

TEST(GemmDispatch, SetPrecisionRoutesDispatchers) {
  // Under SetPrecision(kInt8) the internal::Gemm wrappers take the quantized
  // path — but only outside grad mode: recording forwards must stay fp32 so
  // autograd gradients match the forward they differentiate.
  gemm::Precision prev = gemm::SetPrecision(gemm::Precision::kInt8);
  EXPECT_EQ(gemm::ActivePrecision(), gemm::Precision::kInt8);

  const int64_t m = 12, k = 40, n = 9;
  std::vector<float> a = RandomVec(m * k, 5);
  std::vector<float> b = RandomVec(k * n, 6);
  std::vector<float> int8_direct(static_cast<size_t>(m * n));
  std::vector<float> fp32_direct(static_cast<size_t>(m * n));
  gemm::RunEx(gemm::ActiveKernel(), gemm::Precision::kInt8, gemm::Layout::kNN,
              a.data(), b.data(), int8_direct.data(), m, k, n, false);
  gemm::Run(gemm::ActiveKernel(), gemm::Layout::kNN, a.data(), b.data(),
            fp32_direct.data(), m, k, n, false);
  ASSERT_NE(0, std::memcmp(int8_direct.data(), fp32_direct.data(),
                           int8_direct.size() * sizeof(float)))
      << "test needs a shape where int8 and fp32 visibly differ";

  std::vector<float> via_dispatch(static_cast<size_t>(m * n));
  {
    NoGradGuard guard;  // inference: quantized path active
    internal::Gemm(a.data(), b.data(), via_dispatch.data(), m, k, n, false);
  }
  EXPECT_EQ(0, std::memcmp(via_dispatch.data(), int8_direct.data(),
                           via_dispatch.size() * sizeof(float)));

  internal::Gemm(a.data(), b.data(), via_dispatch.data(), m, k, n,
                 false);  // grad mode on: forced fp32
  EXPECT_EQ(0, std::memcmp(via_dispatch.data(), fp32_direct.data(),
                           via_dispatch.size() * sizeof(float)));

  EXPECT_EQ(gemm::SetPrecision(prev), prev);
}

}  // namespace
}  // namespace dot
