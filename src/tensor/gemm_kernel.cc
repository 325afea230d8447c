// GEMM kernel engine: naive reference kernels, the blocked/packed engine,
// and the SIMD microkernels. See gemm_kernel.h for the contract.
//
// Blocked engine layout (BLIS-style):
//
//   for jc (NC columns):                      L3-resident B slice
//     for pc (KC of k):                       fixed k-block order
//       pack B[pc:pc+KC, jc:jc+NC] -> Bp     NR-wide panels, parallel
//       for ic (MC rows):                     parallel across the pool
//         pack A[ic:ic+MC, pc:pc+KC] -> Ap   MR-tall panels, per task
//         for jr, ir: microkernel(Ap, Bp) -> C tile
//
// The microkernel accumulates an MR x NR tile in registers over one KC
// block and writes C once per block (store on the first block of a
// non-accumulating product, add afterwards). Work is distributed only
// across disjoint output regions (B panels while packing, MC row blocks
// while computing) and the k order is fixed, so results are bitwise
// identical for every thread count — the batched-serving equivalence and
// determinism suites rely on this.
//
// Packed panels are 64-byte aligned so the 32/64-byte SIMD loads never
// split a cache line (measured ~2x on the 256^3 bench shape).

#include "tensor/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "tensor/quantize.h"
#include "tensor/storage.h"
#include "util/logging.h"
#include "util/thread_pool.h"

#if defined(__AVX2__) && defined(__FMA__)
#define DOT_GEMM_HAVE_AVX2 1
#include <immintrin.h>
#endif
#if defined(__AVX512F__) && defined(__FMA__)
#define DOT_GEMM_HAVE_AVX512 1
#endif

namespace dot {
namespace gemm {

namespace {

// ---- Shared helpers ---------------------------------------------------------

constexpr int64_t kKC = 256;   // k-block: one packed B panel column in L1
constexpr int64_t kMCBase = 128;   // row block (rounded up to MR)
constexpr int64_t kNCBase = 2048;  // column block (rounded up to NR)
constexpr int64_t kMaxMR = 8;
constexpr int64_t kMaxNR = 32;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }
int64_t RoundUp(int64_t a, int64_t b) { return CeilDiv(a, b) * b; }

/// 64-byte-aligned scratch buffer (cache-line aligned packed panels).
struct AlignedBuffer {
  explicit AlignedBuffer(int64_t floats) {
    void* p = nullptr;
    const int rc =
        posix_memalign(&p, 64, static_cast<size_t>(floats) * sizeof(float));
    DOT_CHECK(rc == 0) << "gemm: cannot allocate a " << floats
                       << "-float pack buffer (posix_memalign error " << rc << ")";
    data = static_cast<float*>(p);
  }
  ~AlignedBuffer() { std::free(data); }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  float* data = nullptr;
};

// Rows above which a naive GEMM is split across the global thread pool.
constexpr int64_t kParallelRowThreshold = 64;

template <typename RowFn>
void ForEachRow(int64_t m, RowFn fn) {
  if (m >= kParallelRowThreshold && ThreadPool::Global()->num_threads() > 1) {
    ParallelFor(
        ThreadPool::Global(), m,
        [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) fn(i);
        },
        /*min_chunk=*/8);
  } else {
    for (int64_t i = 0; i < m; ++i) fn(i);
  }
}

// ---- Naive reference kernels ------------------------------------------------
// The original triple-loop kernels, unchanged: they are the oracle the
// differential harness compares every other kernel against.

void NaiveNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  // Short-and-wide GEMMs — the batched-conv shape [OC, CKK] x [CKK, B*OHW]
  // with few rows but a long streaming dimension — parallelize over column
  // blocks instead of rows. Every output element keeps the same
  // k-accumulation order as the serial kernel, so the result is bitwise
  // identical for any thread count or block partitioning.
  constexpr int64_t kParallelColThreshold = 2048;
  if (m < kParallelRowThreshold && n >= kParallelColThreshold &&
      ThreadPool::Global()->num_threads() > 1) {
    ParallelFor(
        ThreadPool::Global(), n,
        [&](int64_t jb, int64_t je) {
          for (int64_t i = 0; i < m; ++i) {
            float* crow = c + i * n;
            if (!accumulate) std::fill(crow + jb, crow + je, 0.0f);
            const float* arow = a + i * k;
            for (int64_t kk = 0; kk < k; ++kk) {
              float av = arow[kk];
              if (av == 0.0f) continue;
              const float* brow = b + kk * n;
              for (int64_t j = jb; j < je; ++j) crow[j] += av * brow[j];
            }
          }
        },
        /*min_chunk=*/512);
    return;
  }
  // i-k-j loop order: unit-stride access on B and C.
  ForEachRow(m, [&](int64_t i) {
    float* crow = c + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    const float* arow = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
}

void NaiveTA(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  // A is [k, m]; C[i, j] = sum_kk A[kk, i] * B[kk, j].
  ForEachRow(m, [&](int64_t i) {
    float* crow = c + i * n;
    if (!accumulate) std::fill(crow, crow + n, 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = a[kk * m + i];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  });
}

void NaiveTB(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  // B is [n, k]; C[i, j] = dot(A[i, :], B[j, :]).
  ForEachRow(m, [&](int64_t i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      if (accumulate) {
        crow[j] += acc;
      } else {
        crow[j] = acc;
      }
    }
  });
}

void RunNaive(Layout layout, const float* a, const float* b, float* c,
              int64_t m, int64_t k, int64_t n, bool accumulate) {
  switch (layout) {
    case Layout::kNN:
      NaiveNN(a, b, c, m, k, n, accumulate);
      return;
    case Layout::kTA:
      NaiveTA(a, b, c, m, k, n, accumulate);
      return;
    case Layout::kTB:
      NaiveTB(a, b, c, m, k, n, accumulate);
      return;
  }
}

// ---- Packing ----------------------------------------------------------------
// Ap panel layout: MR-tall row panels, element (p, r) at ap[p * MR + r].
// Bp panel layout: NR-wide column panels, element (p, c) at bp[p * NR + c].
// Short panels are zero-padded so the microkernel never branches on the
// edge (padded lanes multiply by zero and are dropped at writeback).

/// Packs rows [i0, i0+rows) x k-range [p0, p0+kc) of op(A) into one panel.
void PackAPanel(const float* a, Layout layout, int64_t m, int64_t k,
                int64_t i0, int64_t rows, int64_t p0, int64_t kc, int64_t mr,
                float* dst) {
  if (layout == Layout::kTA) {
    // A is [k, m]: a row of the panel is contiguous in memory.
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = a + (p0 + p) * m + i0;
      float* d = dst + p * mr;
      for (int64_t r = 0; r < rows; ++r) d[r] = src[r];
      for (int64_t r = rows; r < mr; ++r) d[r] = 0.0f;
    }
    return;
  }
  // A is [m, k] (kNN and kTB): strided transpose into the panel.
  for (int64_t p = 0; p < kc; ++p) {
    float* d = dst + p * mr;
    for (int64_t r = 0; r < rows; ++r) d[r] = a[(i0 + r) * k + p0 + p];
    for (int64_t r = rows; r < mr; ++r) d[r] = 0.0f;
  }
}

/// Packs cols [j0, j0+cols) x k-range [p0, p0+kc) of op(B) into one panel.
void PackBPanel(const float* b, Layout layout, int64_t k, int64_t n,
                int64_t p0, int64_t kc, int64_t j0, int64_t cols, int64_t nr,
                float* dst) {
  if (layout == Layout::kTB) {
    // B is [n, k]: one packed column is contiguous in memory.
    for (int64_t p = 0; p < kc; ++p) {
      float* d = dst + p * nr;
      for (int64_t cc = cols; cc < nr; ++cc) d[cc] = 0.0f;
    }
    for (int64_t cc = 0; cc < cols; ++cc) {
      const float* src = b + (j0 + cc) * k + p0;
      for (int64_t p = 0; p < kc; ++p) dst[p * nr + cc] = src[p];
    }
    return;
  }
  // B is [k, n] (kNN and kTA): a packed row is a contiguous slice.
  const float* src = b + p0 * n + j0;
  if (cols == nr) {
    for (int64_t p = 0; p < kc; ++p) {
      std::memcpy(dst + p * nr, src + p * n,
                  static_cast<size_t>(nr) * sizeof(float));
    }
    return;
  }
  for (int64_t p = 0; p < kc; ++p) {
    float* d = dst + p * nr;
    for (int64_t cc = 0; cc < cols; ++cc) d[cc] = src[p * n + cc];
    for (int64_t cc = cols; cc < nr; ++cc) d[cc] = 0.0f;
  }
}

// ---- Microkernels -----------------------------------------------------------
// Signature: accumulate op(A)-panel x op(B)-panel over one KC block into the
// MR x NR tile at c (row stride ldc). `first` overwrites the tile (beta=0),
// otherwise the tile is added to (beta=1).

struct MicroKernel {
  int64_t mr;
  int64_t nr;
  void (*fn)(int64_t kc, const float* ap, const float* bp, float* c,
             int64_t ldc, bool first);
};

/// Portable 8x8 register tile. The local accumulator has a fixed 64-float
/// footprint the compiler keeps in vector registers; with autovectorization
/// each row is one or two FMA lanes wide.
void MicroScalar8x8(int64_t kc, const float* __restrict__ ap,
                    const float* __restrict__ bp, float* __restrict__ c,
                    int64_t ldc, bool first) {
  float acc[8][8] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * 8;
    const float* b = bp + p * 8;
    for (int r = 0; r < 8; ++r) {
      float av = a[r];
      for (int j = 0; j < 8; ++j) acc[r][j] += av * b[j];
    }
  }
  if (first) {
    for (int r = 0; r < 8; ++r)
      for (int j = 0; j < 8; ++j) c[r * ldc + j] = acc[r][j];
  } else {
    for (int r = 0; r < 8; ++r)
      for (int j = 0; j < 8; ++j) c[r * ldc + j] += acc[r][j];
  }
}

MicroKernel ScalarMicro() { return {8, 8, &MicroScalar8x8}; }

#if defined(DOT_GEMM_HAVE_AVX2)
/// 8x8 AVX2/FMA tile: one ymm accumulator per row (8 of 16 registers),
/// one B load and eight A broadcasts per k step.
void MicroAvx2_8x8(int64_t kc, const float* __restrict__ ap,
                   const float* __restrict__ bp, float* __restrict__ c,
                   int64_t ldc, bool first) {
  __m256 c0, c1, c2, c3, c4, c5, c6, c7;
  if (first) {
    c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = _mm256_setzero_ps();
  } else {
    c0 = _mm256_loadu_ps(c + 0 * ldc);
    c1 = _mm256_loadu_ps(c + 1 * ldc);
    c2 = _mm256_loadu_ps(c + 2 * ldc);
    c3 = _mm256_loadu_ps(c + 3 * ldc);
    c4 = _mm256_loadu_ps(c + 4 * ldc);
    c5 = _mm256_loadu_ps(c + 5 * ldc);
    c6 = _mm256_loadu_ps(c + 6 * ldc);
    c7 = _mm256_loadu_ps(c + 7 * ldc);
  }
#define DOT_AVX2_STEP(pp)                                          \
  do {                                                             \
    __m256 bv = _mm256_loadu_ps(bp + (pp) * 8);                    \
    const float* a = ap + (pp) * 8;                                \
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 0), bv, c0);      \
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 1), bv, c1);      \
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 2), bv, c2);      \
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 3), bv, c3);      \
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 4), bv, c4);      \
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 5), bv, c5);      \
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 6), bv, c6);      \
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(a + 7), bv, c7);      \
  } while (0)
  int64_t p = 0;
  for (; p + 2 <= kc; p += 2) {
    DOT_AVX2_STEP(p);
    DOT_AVX2_STEP(p + 1);
  }
  for (; p < kc; ++p) DOT_AVX2_STEP(p);
#undef DOT_AVX2_STEP
  _mm256_storeu_ps(c + 0 * ldc, c0);
  _mm256_storeu_ps(c + 1 * ldc, c1);
  _mm256_storeu_ps(c + 2 * ldc, c2);
  _mm256_storeu_ps(c + 3 * ldc, c3);
  _mm256_storeu_ps(c + 4 * ldc, c4);
  _mm256_storeu_ps(c + 5 * ldc, c5);
  _mm256_storeu_ps(c + 6 * ldc, c6);
  _mm256_storeu_ps(c + 7 * ldc, c7);
}
#endif  // DOT_GEMM_HAVE_AVX2

#if defined(DOT_GEMM_HAVE_AVX512)
/// 8x32 AVX-512 tile: 16 zmm accumulators (individually named — array
/// indexing makes gcc spill to the stack), two B loads and eight A
/// broadcasts per k step. Reaches ~80% of the single-core FMA peak on the
/// 256^3 bench shape.
void MicroAvx512_8x32(int64_t kc, const float* __restrict__ ap,
                      const float* __restrict__ bp, float* __restrict__ c,
                      int64_t ldc, bool first) {
  __m512 c00, c01, c10, c11, c20, c21, c30, c31;
  __m512 c40, c41, c50, c51, c60, c61, c70, c71;
  if (first) {
    c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = _mm512_setzero_ps();
    c40 = c41 = c50 = c51 = c60 = c61 = c70 = c71 = _mm512_setzero_ps();
  } else {
    c00 = _mm512_loadu_ps(c + 0 * ldc);
    c01 = _mm512_loadu_ps(c + 0 * ldc + 16);
    c10 = _mm512_loadu_ps(c + 1 * ldc);
    c11 = _mm512_loadu_ps(c + 1 * ldc + 16);
    c20 = _mm512_loadu_ps(c + 2 * ldc);
    c21 = _mm512_loadu_ps(c + 2 * ldc + 16);
    c30 = _mm512_loadu_ps(c + 3 * ldc);
    c31 = _mm512_loadu_ps(c + 3 * ldc + 16);
    c40 = _mm512_loadu_ps(c + 4 * ldc);
    c41 = _mm512_loadu_ps(c + 4 * ldc + 16);
    c50 = _mm512_loadu_ps(c + 5 * ldc);
    c51 = _mm512_loadu_ps(c + 5 * ldc + 16);
    c60 = _mm512_loadu_ps(c + 6 * ldc);
    c61 = _mm512_loadu_ps(c + 6 * ldc + 16);
    c70 = _mm512_loadu_ps(c + 7 * ldc);
    c71 = _mm512_loadu_ps(c + 7 * ldc + 16);
  }
#define DOT_AVX512_ROW(r, a, b0, b1)                               \
  do {                                                             \
    __m512 av = _mm512_set1_ps((a)[r]);                            \
    c##r##0 = _mm512_fmadd_ps(av, b0, c##r##0);                    \
    c##r##1 = _mm512_fmadd_ps(av, b1, c##r##1);                    \
  } while (0)
#define DOT_AVX512_STEP(pp)                                        \
  do {                                                             \
    __m512 b0 = _mm512_loadu_ps(bp + (pp) * 32);                   \
    __m512 b1 = _mm512_loadu_ps(bp + (pp) * 32 + 16);              \
    const float* a = ap + (pp) * 8;                                \
    DOT_AVX512_ROW(0, a, b0, b1);                                  \
    DOT_AVX512_ROW(1, a, b0, b1);                                  \
    DOT_AVX512_ROW(2, a, b0, b1);                                  \
    DOT_AVX512_ROW(3, a, b0, b1);                                  \
    DOT_AVX512_ROW(4, a, b0, b1);                                  \
    DOT_AVX512_ROW(5, a, b0, b1);                                  \
    DOT_AVX512_ROW(6, a, b0, b1);                                  \
    DOT_AVX512_ROW(7, a, b0, b1);                                  \
  } while (0)
  int64_t p = 0;
  for (; p + 2 <= kc; p += 2) {
    DOT_AVX512_STEP(p);
    DOT_AVX512_STEP(p + 1);
  }
  for (; p < kc; ++p) DOT_AVX512_STEP(p);
#undef DOT_AVX512_STEP
#undef DOT_AVX512_ROW
  _mm512_storeu_ps(c + 0 * ldc, c00);
  _mm512_storeu_ps(c + 0 * ldc + 16, c01);
  _mm512_storeu_ps(c + 1 * ldc, c10);
  _mm512_storeu_ps(c + 1 * ldc + 16, c11);
  _mm512_storeu_ps(c + 2 * ldc, c20);
  _mm512_storeu_ps(c + 2 * ldc + 16, c21);
  _mm512_storeu_ps(c + 3 * ldc, c30);
  _mm512_storeu_ps(c + 3 * ldc + 16, c31);
  _mm512_storeu_ps(c + 4 * ldc, c40);
  _mm512_storeu_ps(c + 4 * ldc + 16, c41);
  _mm512_storeu_ps(c + 5 * ldc, c50);
  _mm512_storeu_ps(c + 5 * ldc + 16, c51);
  _mm512_storeu_ps(c + 6 * ldc, c60);
  _mm512_storeu_ps(c + 6 * ldc + 16, c61);
  _mm512_storeu_ps(c + 7 * ldc, c70);
  _mm512_storeu_ps(c + 7 * ldc + 16, c71);
}
#endif  // DOT_GEMM_HAVE_AVX512

enum class SimdLevel { kNone, kAvx2, kAvx512 };

SimdLevel DetectSimdLevel() {
#if defined(__GNUC__) || defined(__clang__)
#if defined(DOT_GEMM_HAVE_AVX512)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx512;
  }
#endif
#if defined(DOT_GEMM_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx2;
  }
#endif
#endif
  return SimdLevel::kNone;
}

SimdLevel CachedSimdLevel() {
  static const SimdLevel level = DetectSimdLevel();
  return level;
}

bool SimdMicroAvailable() { return CachedSimdLevel() != SimdLevel::kNone; }

MicroKernel SimdMicro() {
#if defined(DOT_GEMM_HAVE_AVX512)
  if (CachedSimdLevel() == SimdLevel::kAvx512) return {8, 32, &MicroAvx512_8x32};
#endif
#if defined(DOT_GEMM_HAVE_AVX2)
  if (CachedSimdLevel() == SimdLevel::kAvx2) return {8, 8, &MicroAvx2_8x8};
#endif
  return ScalarMicro();  // unreachable when callers check SimdMicroAvailable()
}

// ---- Blocked engine ---------------------------------------------------------

void RunBlockedEngine(Layout layout, const float* a, const float* b, float* c,
                      int64_t m, int64_t k, int64_t n, bool accumulate,
                      const MicroKernel& uk) {
  const int64_t mr = uk.mr, nr = uk.nr;
  const int64_t mc_max = RoundUp(kMCBase, mr);
  const int64_t nc_max = RoundUp(kNCBase, nr);
  ThreadPool* pool = ThreadPool::Global();
  // Pack buffers hold one block of this product's panels, so a small
  // product allocates small buffers (k >= 1 here).
  const int64_t kc_max = std::min(kKC, k);
  AlignedBuffer bpack(kc_max * RoundUp(std::min(nc_max, n), nr));
  for (int64_t jc = 0; jc < n; jc += nc_max) {
    const int64_t nc = std::min(nc_max, n - jc);
    const int64_t n_panels = CeilDiv(nc, nr);
    for (int64_t pc = 0; pc < k; pc += kKC) {
      const int64_t kc = std::min(kKC, k - pc);
      const bool first = (pc == 0) && !accumulate;
      // Pack the B block. Panels are disjoint writes, so the partitioning
      // cannot affect the packed bytes.
      ParallelFor(
          pool, n_panels,
          [&](int64_t pb, int64_t pe) {
            for (int64_t pj = pb; pj < pe; ++pj) {
              PackBPanel(b, layout, k, n, pc, kc, jc + pj * nr,
                         std::min(nr, nc - pj * nr), nr,
                         bpack.data + pj * nr * kc);
            }
          },
          /*min_chunk=*/4);
      // Row blocks own disjoint C rows; each packs its own A panels and
      // runs the microkernel grid with the fixed k order.
      const int64_t m_blocks = CeilDiv(m, mc_max);
      ParallelFor(
          pool, m_blocks,
          [&](int64_t bb, int64_t be) {
            AlignedBuffer apack(RoundUp(std::min(mc_max, m), mr) * kc_max);
            alignas(64) float acc[kMaxMR * kMaxNR];
            for (int64_t ib = bb; ib < be; ++ib) {
              const int64_t ic = ib * mc_max;
              const int64_t mc = std::min(mc_max, m - ic);
              const int64_t m_panels = CeilDiv(mc, mr);
              for (int64_t pi = 0; pi < m_panels; ++pi) {
                PackAPanel(a, layout, m, k, ic + pi * mr,
                           std::min(mr, mc - pi * mr), pc, kc, mr,
                           apack.data + pi * mr * kc);
              }
              for (int64_t pj = 0; pj < n_panels; ++pj) {
                const int64_t nrr = std::min(nr, nc - pj * nr);
                const float* bp = bpack.data + pj * nr * kc;
                for (int64_t pi = 0; pi < m_panels; ++pi) {
                  const int64_t mrr = std::min(mr, mc - pi * mr);
                  const float* ap = apack.data + pi * mr * kc;
                  float* cdst = c + (ic + pi * mr) * n + jc + pj * nr;
                  if (mrr == mr && nrr == nr) {
                    uk.fn(kc, ap, bp, cdst, n, first);
                    continue;
                  }
                  // Edge tile: run the microkernel on a padded scratch tile
                  // seeded with the live C values, so each element sees
                  // exactly the full-tile arithmetic. Merging a zero-based
                  // partial instead would round differently on later KC
                  // blocks, and whether an element sits in an edge tile
                  // depends on n — the batched-vs-single conv bitwise
                  // equivalence would break.
                  std::memset(acc, 0,
                              static_cast<size_t>(mr * nr) * sizeof(float));
                  if (!first) {
                    for (int64_t r = 0; r < mrr; ++r)
                      for (int64_t j = 0; j < nrr; ++j)
                        acc[r * nr + j] = cdst[r * n + j];
                  }
                  uk.fn(kc, ap, bp, acc, nr, first);
                  for (int64_t r = 0; r < mrr; ++r)
                    for (int64_t j = 0; j < nrr; ++j)
                      cdst[r * n + j] = acc[r * nr + j];
                }
              }
            }
          },
          /*min_chunk=*/1);
    }
  }
}

// ---- Int8 quantized path ----------------------------------------------------
//
// C = dequant(op(A)_q * op(B)_q): symmetric per-channel int8 (quantize.h)
// with one scale per op(A) row and one per op(B) column, exact int32
// accumulation over the full k, and a single fp32 dequant multiply at the
// C write. Design consequences (DESIGN.md §5j):
//   - integer sums are association-free, so for a fixed precision the
//     result is bitwise identical across thread counts, across all three
//     kernels, and across batch composition (per-column activation scales
//     keep a column's quantization independent of where it lands in a
//     panel — the property the batch-position-invariance test pins);
//   - |acc| <= k * 127^2, so k <= kMaxQuantK guarantees no int32 overflow
//     and anything larger falls back to fp32 (counted, never wrong);
//   - non-finite operands refuse to quantize and fall back to fp32, the
//     same rejection contract the fp32 loss guard follows.

constexpr int64_t kQMR = 8;  // int8 microkernel tile: 8 rows x 8 columns
constexpr int64_t kQNR = 8;
// Largest k whose worst-case accumulator magnitude k * 127 * 127 still
// fits in int32 (133144 * 16129 = 2147479576 <= INT32_MAX).
constexpr int64_t kMaxQuantK = 133144;

struct QuantMetrics {
  obs::Counter* gemms;
  obs::Counter* fallback_nonfinite;
  obs::Counter* fallback_bigk;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* cache_drops;
  obs::Gauge* cache_entries;
  obs::Gauge* cache_bytes;
};

QuantMetrics& GetQuantMetrics() {
  static QuantMetrics* m = [] {
    auto* qm = new QuantMetrics();
    auto& reg = obs::MetricsRegistry::Get();
    qm->gemms = reg.GetCounter("dot_gemm_quant_gemms_total");
    qm->fallback_nonfinite =
        reg.GetCounter("dot_gemm_quant_fallbacks_total", {{"reason", "nonfinite"}});
    qm->fallback_bigk =
        reg.GetCounter("dot_gemm_quant_fallbacks_total", {{"reason", "bigk"}});
    qm->cache_hits = reg.GetCounter("dot_gemm_quant_cache_hits_total");
    qm->cache_misses = reg.GetCounter("dot_gemm_quant_cache_misses_total");
    qm->cache_drops = reg.GetCounter("dot_gemm_quant_cache_drops_total");
    qm->cache_entries = reg.GetGauge("dot_gemm_quant_cache_entries");
    qm->cache_bytes = reg.GetGauge("dot_gemm_quant_cache_bytes");
    return qm;
  }();
  return *m;
}

// Pair-interleaved packed panels. One k-pair of an 8-lane tile stores its
// 16 values as [l0p0 l0p1 l1p0 l1p1 ... l7p0 l7p1] so a single
// _mm256_madd_epi16 accumulates both halves of the pair per lane; odd k is
// padded with one zero pair-half, short edge panels with zero lanes (zeros
// contribute nothing to integer sums, so padding never changes a result).
// A-panels pre-widen to int16 — the madd operand width — while B-panels
// stay int8 and widen in-register.
struct QuantPanelsA {
  int64_t m = 0, k = 0;
  Layout layout = Layout::kNN;
  const float* src = nullptr;   // packed-from pointer (cache validation)
  std::vector<float> scales;    // per op(A) row
  std::vector<int16_t> panels;  // CeilDiv(m,8) panels of RoundUp(k,2)*8
  int64_t bytes() const {
    return static_cast<int64_t>(scales.size() * sizeof(float) +
                                panels.size() * sizeof(int16_t));
  }
};

struct QuantPanelsB {
  int64_t k = 0, n = 0;
  Layout layout = Layout::kNN;
  const float* src = nullptr;
  std::vector<float> scales;   // per op(B) column
  std::vector<int8_t> panels;  // CeilDiv(n,8) panels of RoundUp(k,2)*8
  int64_t bytes() const {
    return static_cast<int64_t>(scales.size() * sizeof(float) +
                                panels.size() * sizeof(int8_t));
  }
};

// Contiguous quantization of `count` values with one scale. The AVX2 body
// is bitwise identical to the scalar tail: _mm256_cvtps_epi32 rounds
// nearest-even under the default MXCSR, exactly like lrintf, and the
// product v * inv is one float multiply on both paths. (The packers are
// the pack-time hot loop — a scalar lrintf per element would cost more
// than the int8 product itself at serving shapes.)
void QuantizeRun(const float* src, int64_t count, float inv, int8_t* dst) {
  int64_t i = 0;
#if defined(DOT_GEMM_HAVE_AVX2)
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i vmax = _mm256_set1_epi32(quant::kQuantMax);
  const __m256i vmin = _mm256_set1_epi32(-quant::kQuantMax);
  for (; i + 8 <= count; i += 8) {
    __m256i q =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(src + i), vinv));
    q = _mm256_min_epi32(q, vmax);
    q = _mm256_max_epi32(q, vmin);
    __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packs_epi16(w, w));
  }
#endif
  for (; i < count; ++i) dst[i] = quant::QuantizeValue(src[i], inv);
}

// Returns null when any element is non-finite (caller falls back to fp32).
std::shared_ptr<QuantPanelsA> PackQuantA(const float* a, Layout layout,
                                         int64_t m, int64_t k) {
  auto out = std::make_shared<QuantPanelsA>();
  out->m = m;
  out->k = k;
  out->layout = layout;
  out->src = a;
  out->scales.assign(static_cast<size_t>(m), 0.0f);
  // op(A) row i: row i of A[m,k] (kNN/kTB) or column i of A[k,m] (kTA).
  const int64_t stride = (layout == Layout::kTA) ? m : 1;
  auto row_ptr = [&](int64_t i) {
    return (layout == Layout::kTA) ? a + i : a + i * k;
  };
  for (int64_t i = 0; i < m; ++i) {
    if (!quant::ChannelScale(row_ptr(i), k, stride, &out->scales[i])) {
      return nullptr;
    }
  }
  const int64_t k2p = CeilDiv(k, 2);
  const int64_t pm = CeilDiv(m, kQMR);
  out->panels.assign(static_cast<size_t>(pm * k2p * 16), 0);
  ParallelFor(
      ThreadPool::Global(), pm,
      [&](int64_t begin, int64_t end) {
        std::vector<int8_t> tmp(static_cast<size_t>(k));
        for (int64_t pi = begin; pi < end; ++pi) {
          int16_t* panel = out->panels.data() + pi * k2p * 16;
          int64_t rows = std::min<int64_t>(kQMR, m - pi * kQMR);
          for (int64_t r = 0; r < rows; ++r) {
            const int64_t i = pi * kQMR + r;
            const float* row = row_ptr(i);
            const float inv = quant::InverseScale(out->scales[i]);
            if (stride == 1) {
              QuantizeRun(row, k, inv, tmp.data());
            } else {
              for (int64_t p = 0; p < k; ++p) {
                tmp[p] = quant::QuantizeValue(row[p * stride], inv);
              }
            }
            for (int64_t p2 = 0; p2 < k / 2; ++p2) {
              int16_t* slot = panel + p2 * 16 + r * 2;
              slot[0] = tmp[2 * p2];
              slot[1] = tmp[2 * p2 + 1];
            }
            if (k & 1) panel[(k >> 1) * 16 + r * 2] = tmp[k - 1];
          }
        }
      },
      /*min_chunk=*/1);
  return out;
}

std::shared_ptr<QuantPanelsB> PackQuantB(const float* b, Layout layout,
                                         int64_t k, int64_t n) {
  auto out = std::make_shared<QuantPanelsB>();
  out->k = k;
  out->n = n;
  out->layout = layout;
  out->src = b;
  out->scales.assign(static_cast<size_t>(n), 0.0f);
  if (layout == Layout::kTB) {
    // op(B) column j = row j of B[n,k], contiguous.
    for (int64_t j = 0; j < n; ++j) {
      if (!quant::ChannelScale(b + j * k, k, 1, &out->scales[j])) {
        return nullptr;
      }
    }
  } else {
    // B[k,n]: per-column maxima in one streaming pass over the rows.
    // Branchless non-finite accumulation keeps the inner loop vectorized
    // (!(av <= FLT_MAX) is true for Inf and NaN both).
    std::vector<float> maxabs(static_cast<size_t>(n), 0.0f);
    bool bad = false;
    for (int64_t p = 0; p < k; ++p) {
      const float* row = b + p * n;
      for (int64_t j = 0; j < n; ++j) {
        float av = std::fabs(row[j]);
        bad |= !(av <= FLT_MAX);
        maxabs[j] = av > maxabs[j] ? av : maxabs[j];
      }
    }
    if (bad) return nullptr;
    for (int64_t j = 0; j < n; ++j) {
      out->scales[j] = maxabs[j] / static_cast<float>(quant::kQuantMax);
    }
  }
  const int64_t k2p = CeilDiv(k, 2);
  const int64_t pn = CeilDiv(n, kQNR);
  out->panels.assign(static_cast<size_t>(pn * k2p * 16), 0);
  ParallelFor(
      ThreadPool::Global(), pn,
      [&](int64_t begin, int64_t end) {
        for (int64_t pj = begin; pj < end; ++pj) {
          int8_t* panel = out->panels.data() + pj * k2p * 16;
          int64_t cols = std::min<int64_t>(kQNR, n - pj * kQNR);
          if (layout == Layout::kTB) {
            for (int64_t jj = 0; jj < cols; ++jj) {
              const int64_t j = pj * kQNR + jj;
              const float* row = b + j * k;
              const float inv = quant::InverseScale(out->scales[j]);
              for (int64_t p = 0; p < k; ++p) {
                panel[(p >> 1) * 16 + jj * 2 + (p & 1)] =
                    quant::QuantizeValue(row[p], inv);
              }
            }
          } else {
            float inv[kQNR] = {0};
            for (int64_t jj = 0; jj < cols; ++jj) {
              inv[jj] = quant::InverseScale(out->scales[pj * kQNR + jj]);
            }
            const float* base = b + pj * kQNR;
#if defined(DOT_GEMM_HAVE_AVX2)
            if (cols == kQNR) {
              // Full panel: quantize a k-pair of 8-column rows and weave
              // them with one byte interleave — unpacklo(q_even, q_odd)
              // emits exactly the [j0p0 j0p1 j1p0 j1p1 ...] pair layout.
              const __m256 vinv = _mm256_loadu_ps(inv);
              const __m256i vmax = _mm256_set1_epi32(quant::kQuantMax);
              const __m256i vmin = _mm256_set1_epi32(-quant::kQuantMax);
              auto quantize8 = [&](const float* src) {
                __m256i q = _mm256_cvtps_epi32(
                    _mm256_mul_ps(_mm256_loadu_ps(src), vinv));
                q = _mm256_min_epi32(q, vmax);
                q = _mm256_max_epi32(q, vmin);
                __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                            _mm256_extracti128_si256(q, 1));
                return _mm_packs_epi16(w, w);
              };
              const __m128i zero = _mm_setzero_si128();
              for (int64_t p2 = 0; p2 < k2p; ++p2) {
                __m128i even = quantize8(base + 2 * p2 * n);
                __m128i odd =
                    2 * p2 + 1 < k ? quantize8(base + (2 * p2 + 1) * n) : zero;
                _mm_storeu_si128(reinterpret_cast<__m128i*>(panel + p2 * 16),
                                 _mm_unpacklo_epi8(even, odd));
              }
              continue;
            }
#endif
            for (int64_t p = 0; p < k; ++p) {
              const float* row = base + p * n;
              int8_t* dst = panel + (p >> 1) * 16 + (p & 1);
              for (int64_t jj = 0; jj < cols; ++jj) {
                dst[jj * 2] = quant::QuantizeValue(row[jj], inv[jj]);
              }
            }
          }
        }
      },
      /*min_chunk=*/1);
  return out;
}

// The one dequantization expression every int8 kernel shares. Fixed
// operation order — (float)acc * (sa * sb) — is what makes naive, blocked,
// and simd agree bitwise on the int8 path.
inline float DequantElem(int32_t acc, float sa, float sb) {
  // The volatile pins the product to a rounded float: without it, an
  // accumulating caller's `crow[j] + DequantElem(...)` can be contracted
  // into an fma (-ffp-contract=fast is the -O3 default), skipping this
  // rounding at some call sites but not others and silently breaking the
  // bitwise agreement. Cost is one store+load per C element — O(mn),
  // noise next to the O(mnk) kernel.
  volatile float v = static_cast<float>(acc) * (sa * sb);
  return v;
}

// int8 8x8 microkernels: acc[r*8+j] = sum_p a_q[r][p] * b_q[j][p], fully
// overwriting `acc`. `k2p` counts k-pairs.
void QMicroScalar8x8(int64_t k2p, const int16_t* ap, const int8_t* bp,
                     int32_t* acc) {
  int32_t local[kQMR * kQNR] = {0};
  for (int64_t p2 = 0; p2 < k2p; ++p2) {
    const int16_t* apair = ap + p2 * 16;
    const int8_t* bpair = bp + p2 * 16;
    for (int64_t r = 0; r < kQMR; ++r) {
      const int32_t a0 = apair[r * 2];
      const int32_t a1 = apair[r * 2 + 1];
      int32_t* row = local + r * kQNR;
      for (int64_t j = 0; j < kQNR; ++j) {
        row[j] += a0 * bpair[j * 2] + a1 * bpair[j * 2 + 1];
      }
    }
  }
  std::memcpy(acc, local, sizeof(local));
}

#if defined(DOT_GEMM_HAVE_AVX2)
// AVX2 emulation of the VNNI dot-product idiom: widen the B pair-lanes to
// int16 and _mm256_madd_epi16 against a broadcast A pair. Products are
// bounded by 127^2, so the two int16 multiplies per lane sum exactly into
// int32 — madd never saturates here.
void QMicroAvx2_8x8(int64_t k2p, const int16_t* ap, const int8_t* bp,
                    int32_t* acc) {
  __m256i cc[kQMR];
  for (int r = 0; r < kQMR; ++r) cc[r] = _mm256_setzero_si256();
  for (int64_t p2 = 0; p2 < k2p; ++p2) {
    const __m256i bw = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + p2 * 16)));
    const int16_t* apair = ap + p2 * 16;
    for (int r = 0; r < kQMR; ++r) {
      int32_t pair;
      std::memcpy(&pair, apair + r * 2, sizeof(pair));
      cc[r] = _mm256_add_epi32(
          cc[r], _mm256_madd_epi16(_mm256_set1_epi32(pair), bw));
    }
  }
  for (int r = 0; r < kQMR; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kQNR), cc[r]);
  }
}
#endif  // DOT_GEMM_HAVE_AVX2

using QMicroFn = void (*)(int64_t, const int16_t*, const int8_t*, int32_t*);

QMicroFn PickQuantMicro(Kernel kernel) {
#if defined(DOT_GEMM_HAVE_AVX2)
  if (kernel == Kernel::kSimd && SimdMicroAvailable()) return &QMicroAvx2_8x8;
#else
  (void)kernel;
#endif
  return &QMicroScalar8x8;
}

// Full-k tile sweep over the packed panels. Parallelized across C tiles:
// writers are disjoint and integer accumulation is order-free, so any
// partitioning is bitwise identical.
void RunInt8Tiles(const QuantPanelsA& qa, const QuantPanelsB& qb, float* c,
                  int64_t m, int64_t n, bool accumulate, QMicroFn micro) {
  const int64_t k2p = CeilDiv(qa.k, 2);
  const int64_t pm = CeilDiv(m, kQMR);
  const int64_t pn = CeilDiv(n, kQNR);
  ParallelFor(
      ThreadPool::Global(), pm * pn,
      [&](int64_t begin, int64_t end) {
        alignas(32) int32_t acc[kQMR * kQNR];
        for (int64_t t = begin; t < end; ++t) {
          const int64_t pi = t / pn;
          const int64_t pj = t % pn;
          micro(k2p, qa.panels.data() + pi * k2p * 16,
                qb.panels.data() + pj * k2p * 16, acc);
          const int64_t rows = std::min<int64_t>(kQMR, m - pi * kQMR);
          const int64_t cols = std::min<int64_t>(kQNR, n - pj * kQNR);
          const float* sa = qa.scales.data() + pi * kQMR;
          const float* sb = qb.scales.data() + pj * kQNR;
          float* ctile = c + pi * kQMR * n + pj * kQNR;
          for (int64_t r = 0; r < rows; ++r) {
            float* crow = ctile + r * n;
            for (int64_t j = 0; j < cols; ++j) {
              const float v = DequantElem(acc[r * kQNR + j], sa[r], sb[j]);
              crow[j] = accumulate ? crow[j] + v : v;
            }
          }
        }
      },
      /*min_chunk=*/8);
}

// Flat (unpanelled) quantization for the naive reference: op(A) row-major
// [m,k] and op(B) row-major [k,n]. Same scale + rounding functions as the
// packers, so every element quantizes identically on both paths.
bool QuantizeAFlat(const float* a, Layout layout, int64_t m, int64_t k,
                   std::vector<int8_t>* q, std::vector<float>* scales) {
  const int64_t stride = (layout == Layout::kTA) ? m : 1;
  scales->assign(static_cast<size_t>(m), 0.0f);
  q->resize(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < m; ++i) {
    const float* row = (layout == Layout::kTA) ? a + i : a + i * k;
    if (!quant::ChannelScale(row, k, stride, &(*scales)[i])) return false;
    quant::QuantizeChannel(row, k, stride, (*scales)[i], q->data() + i * k);
  }
  return true;
}

bool QuantizeBFlat(const float* b, Layout layout, int64_t k, int64_t n,
                   std::vector<int8_t>* q, std::vector<float>* scales) {
  scales->assign(static_cast<size_t>(n), 0.0f);
  q->resize(static_cast<size_t>(k * n));
  if (layout == Layout::kTB) {
    for (int64_t j = 0; j < n; ++j) {
      if (!quant::ChannelScale(b + j * k, k, 1, &(*scales)[j])) return false;
      const float inv = quant::InverseScale((*scales)[j]);
      for (int64_t p = 0; p < k; ++p) {
        (*q)[p * n + j] = quant::QuantizeValue(b[j * k + p], inv);
      }
    }
    return true;
  }
  for (int64_t j = 0; j < n; ++j) {
    if (!quant::ChannelScale(b + j, k, n, &(*scales)[j])) return false;
  }
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      (*q)[p * n + j] = quant::QuantizeValue(
          b[p * n + j], quant::InverseScale((*scales)[j]));
    }
  }
  return true;
}

void RunInt8Naive(const int8_t* qa, const float* sa, const int8_t* qb,
                  const float* sb, float* c, int64_t m, int64_t k, int64_t n,
                  bool accumulate) {
  ForEachRow(m, [&](int64_t i) {
    const int8_t* arow = qa + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int32_t>(arow[p]) * static_cast<int32_t>(qb[p * n + j]);
      }
      const float v = DequantElem(acc, sa[i], sb[j]);
      crow[j] = accumulate ? crow[j] + v : v;
    }
  });
}

// ---- Quantized-weight cache -------------------------------------------------
// Keyed on Storage::id() — a process-unique monotonic id, so a recycled
// allocation can never alias a dead entry — with the packed-from pointer
// and shape re-validated on every hit. Entries are dropped by the
// Storage destructor (flag-gated), by ClearQuantCache() after in-place
// weight mutation, and implicitly on hot swap when the retired model's
// Storages die.

struct QuantCacheEntry {
  std::shared_ptr<const QuantPanelsA> a;
  std::shared_ptr<const QuantPanelsB> b;
};

struct QuantCacheState {
  std::mutex mu;
  std::unordered_map<uint64_t, QuantCacheEntry> map;
  int64_t bytes = 0;
  int64_t entries = 0;  // populated role slots (a storage can hold both)
};

QuantCacheState& QuantCache() {
  static QuantCacheState* state = new QuantCacheState();  // leaked: dtor-safe
  return *state;
}

void PublishQuantGauges(const QuantCacheState& state) {
  QuantMetrics& qm = GetQuantMetrics();
  qm.cache_entries->Set(static_cast<double>(state.entries));
  qm.cache_bytes->Set(static_cast<double>(state.bytes));
}

std::shared_ptr<const QuantPanelsA> CacheLookupA(Storage* storage,
                                                 const float* a, Layout layout,
                                                 int64_t m, int64_t k) {
  QuantCacheState& state = QuantCache();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.map.find(storage->id());
  if (it != state.map.end() && it->second.a != nullptr &&
      it->second.a->src == a && it->second.a->layout == layout &&
      it->second.a->m == m && it->second.a->k == k) {
    return it->second.a;
  }
  return nullptr;
}

std::shared_ptr<const QuantPanelsB> CacheLookupB(Storage* storage,
                                                 const float* b, Layout layout,
                                                 int64_t k, int64_t n) {
  QuantCacheState& state = QuantCache();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.map.find(storage->id());
  if (it != state.map.end() && it->second.b != nullptr &&
      it->second.b->src == b && it->second.b->layout == layout &&
      it->second.b->k == k && it->second.b->n == n) {
    return it->second.b;
  }
  return nullptr;
}

void CacheStoreA(Storage* storage, std::shared_ptr<const QuantPanelsA> qa) {
  QuantCacheState& state = QuantCache();
  std::lock_guard<std::mutex> lock(state.mu);
  QuantCacheEntry& e = state.map[storage->id()];
  if (e.a != nullptr) {
    state.bytes -= e.a->bytes();
    --state.entries;
  }
  state.bytes += qa->bytes();
  ++state.entries;
  e.a = std::move(qa);
  storage->MarkQuantCached();
  PublishQuantGauges(state);
}

void CacheStoreB(Storage* storage, std::shared_ptr<const QuantPanelsB> qb) {
  QuantCacheState& state = QuantCache();
  std::lock_guard<std::mutex> lock(state.mu);
  QuantCacheEntry& e = state.map[storage->id()];
  if (e.b != nullptr) {
    state.bytes -= e.b->bytes();
    --state.entries;
  }
  state.bytes += qb->bytes();
  ++state.entries;
  e.b = std::move(qb);
  storage->MarkQuantCached();
  PublishQuantGauges(state);
}

// Runs the product on the int8 path, or returns false when it must fall
// back to fp32 (oversized k, non-finite operand). Degenerate dims are
// handled by the caller before this point.
bool TryRunInt8(Kernel kernel, Layout layout, const float* a, const float* b,
                float* c, int64_t m, int64_t k, int64_t n, bool accumulate,
                Storage* a_storage, Storage* b_storage) {
  QuantMetrics& qm = GetQuantMetrics();
  if (k > kMaxQuantK) {
    qm.fallback_bigk->Increment();
    return false;
  }
  if (kernel == Kernel::kNaive) {
    // Reference path: flat quantized operands, triple loop, no cache.
    std::vector<int8_t> qa, qb;
    std::vector<float> sa, sb;
    if (!QuantizeAFlat(a, layout, m, k, &qa, &sa) ||
        !QuantizeBFlat(b, layout, k, n, &qb, &sb)) {
      qm.fallback_nonfinite->Increment();
      return false;
    }
    RunInt8Naive(qa.data(), sa.data(), qb.data(), sb.data(), c, m, k, n,
                 accumulate);
    qm.gemms->Increment();
    return true;
  }
  std::shared_ptr<const QuantPanelsA> qa;
  if (a_storage != nullptr) {
    qa = CacheLookupA(a_storage, a, layout, m, k);
    (qa != nullptr ? qm.cache_hits : qm.cache_misses)->Increment();
  }
  if (qa == nullptr) {
    qa = PackQuantA(a, layout, m, k);
    if (qa == nullptr) {
      qm.fallback_nonfinite->Increment();
      return false;
    }
    if (a_storage != nullptr) CacheStoreA(a_storage, qa);
  }
  std::shared_ptr<const QuantPanelsB> qb;
  if (b_storage != nullptr) {
    qb = CacheLookupB(b_storage, b, layout, k, n);
    (qb != nullptr ? qm.cache_hits : qm.cache_misses)->Increment();
  }
  if (qb == nullptr) {
    qb = PackQuantB(b, layout, k, n);
    if (qb == nullptr) {
      qm.fallback_nonfinite->Increment();
      return false;
    }
    if (b_storage != nullptr) CacheStoreB(b_storage, qb);
  }
  RunInt8Tiles(*qa, *qb, c, m, n, accumulate, PickQuantMicro(kernel));
  qm.gemms->Increment();
  return true;
}

// ---- Kernel selection -------------------------------------------------------

std::atomic<int> g_active_kernel{-1};

Kernel ResolveFromEnv() {
  Kernel kernel = SimdAvailable() ? Kernel::kSimd : Kernel::kBlocked;
  if (const char* env = std::getenv("DOT_GEMM_KERNEL")) {
    Kernel parsed;
    if (ParseKernelName(env, &parsed)) {
      kernel = parsed;
      if (kernel == Kernel::kSimd && !SimdAvailable()) {
        kernel = Kernel::kBlocked;  // graceful fallback, never an error
      }
    } else if (env[0] != '\0') {
      std::fprintf(stderr,
                   "[dot] unknown DOT_GEMM_KERNEL '%s' "
                   "(want naive|blocked|simd); using %s\n",
                   env, KernelName(kernel));
    }
  }
  return kernel;
}

std::atomic<int> g_active_precision{-1};

Precision ResolvePrecisionFromEnv() {
  Precision precision = Precision::kFp32;
  if (const char* env = std::getenv("DOT_GEMM_PRECISION")) {
    Precision parsed;
    if (ParsePrecisionName(env, &parsed)) {
      precision = parsed;
    } else if (env[0] != '\0') {
      std::fprintf(stderr,
                   "[dot] unknown DOT_GEMM_PRECISION '%s' "
                   "(want fp32|int8); using %s\n",
                   env, PrecisionName(precision));
    }
  }
  return precision;
}

}  // namespace

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kNaive:
      return "naive";
    case Kernel::kBlocked:
      return "blocked";
    case Kernel::kSimd:
      return "simd";
  }
  return "?";
}

bool ParseKernelName(const char* name, Kernel* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "naive") == 0) {
    *out = Kernel::kNaive;
  } else if (std::strcmp(name, "blocked") == 0) {
    *out = Kernel::kBlocked;
  } else if (std::strcmp(name, "simd") == 0) {
    *out = Kernel::kSimd;
  } else {
    return false;
  }
  return true;
}

bool SimdAvailable() { return SimdMicroAvailable(); }

Kernel ActiveKernel() {
  int v = g_active_kernel.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Kernel>(v);
  int resolved = static_cast<int>(ResolveFromEnv());
  int expected = -1;
  g_active_kernel.compare_exchange_strong(expected, resolved,
                                          std::memory_order_relaxed);
  return static_cast<Kernel>(g_active_kernel.load(std::memory_order_relaxed));
}

Kernel SetKernel(Kernel kernel) {
  if (kernel == Kernel::kSimd && !SimdAvailable()) kernel = Kernel::kBlocked;
  g_active_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
  return kernel;
}

void Run(Kernel kernel, Layout layout, const float* a, const float* b,
         float* c, int64_t m, int64_t k, int64_t n, bool accumulate) {
  // Degenerate products never touch the (possibly null) data pointers.
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  obs::OpTimer op_timer(obs::OpKind::kGemmKernel,
                        2.0 * static_cast<double>(m) *
                            static_cast<double>(k) * static_cast<double>(n));
  if (kernel == Kernel::kSimd && !SimdAvailable()) kernel = Kernel::kBlocked;
  switch (kernel) {
    case Kernel::kNaive:
      RunNaive(layout, a, b, c, m, k, n, accumulate);
      return;
    case Kernel::kBlocked:
      RunBlockedEngine(layout, a, b, c, m, k, n, accumulate, ScalarMicro());
      return;
    case Kernel::kSimd:
      RunBlockedEngine(layout, a, b, c, m, k, n, accumulate, SimdMicro());
      return;
  }
}

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "?";
}

bool ParsePrecisionName(const char* name, Precision* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "fp32") == 0) {
    *out = Precision::kFp32;
  } else if (std::strcmp(name, "int8") == 0) {
    *out = Precision::kInt8;
  } else {
    return false;
  }
  return true;
}

Precision ActivePrecision() {
  int v = g_active_precision.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Precision>(v);
  int resolved = static_cast<int>(ResolvePrecisionFromEnv());
  int expected = -1;
  g_active_precision.compare_exchange_strong(expected, resolved,
                                             std::memory_order_relaxed);
  return static_cast<Precision>(
      g_active_precision.load(std::memory_order_relaxed));
}

Precision SetPrecision(Precision precision) {
  g_active_precision.store(static_cast<int>(precision),
                           std::memory_order_relaxed);
  return precision;
}

void RunEx(Kernel kernel, Precision precision, Layout layout, const float* a,
           const float* b, float* c, int64_t m, int64_t k, int64_t n,
           bool accumulate, Storage* a_storage, Storage* b_storage) {
  if (precision == Precision::kInt8 && m > 0 && n > 0 && k > 0) {
    if (kernel == Kernel::kSimd && !SimdAvailable()) kernel = Kernel::kBlocked;
    obs::OpTimer op_timer(obs::OpKind::kGemmKernel,
                          2.0 * static_cast<double>(m) *
                              static_cast<double>(k) * static_cast<double>(n));
    if (TryRunInt8(kernel, layout, a, b, c, m, k, n, accumulate, a_storage,
                   b_storage)) {
      return;
    }
    // Refused (non-finite operand or oversized k): fall through to fp32.
    // The rejection scan is cheap relative to the product, so the nested
    // OpTimer's double count is noise on this rare path.
  }
  Run(kernel, layout, a, b, c, m, k, n, accumulate);
}

int64_t QuantCacheEntries() {
  QuantCacheState& state = QuantCache();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.entries;
}

int64_t QuantCacheBytes() {
  QuantCacheState& state = QuantCache();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.bytes;
}

void ClearQuantCache() {
  QuantCacheState& state = QuantCache();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.map.empty()) return;
  GetQuantMetrics().cache_drops->Increment(state.entries);
  state.map.clear();
  state.bytes = 0;
  state.entries = 0;
  PublishQuantGauges(state);
}

namespace internal {

void DropQuantEntriesFor(uint64_t storage_id) {
  QuantCacheState& state = QuantCache();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.map.find(storage_id);
  if (it == state.map.end()) return;  // already cleared (ClearQuantCache)
  int64_t dropped = 0;
  if (it->second.a != nullptr) {
    state.bytes -= it->second.a->bytes();
    ++dropped;
  }
  if (it->second.b != nullptr) {
    state.bytes -= it->second.b->bytes();
    ++dropped;
  }
  state.entries -= dropped;
  state.map.erase(it);
  GetQuantMetrics().cache_drops->Increment(dropped);
  PublishQuantGauges(state);
}

}  // namespace internal

}  // namespace gemm
}  // namespace dot
