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
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/profile.h"
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

// ---- Kernel selection -------------------------------------------------------

std::atomic<int> g_active_kernel{-1};

Kernel ResolveKernel() {
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
  int resolved = static_cast<int>(ResolveKernel());
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

}  // namespace gemm
}  // namespace dot
