// Blocked + vectorized GEMM microkernel engine.
//
// Every dense hot path in DOT — the UNet's im2col conv2d, the MViT's
// attention products, and all FC layers — bottoms out in one of three GEMM
// variants (plain, A-transposed, B-transposed). This header exposes a
// single engine behind a runtime kernel switch:
//
//   naive    the original triple-loop kernels, kept verbatim as the
//            reference oracle for the differential test harness;
//   blocked  L1/L2-aware cache blocking (MC/KC/NC tiling with packed A/B
//            panels) around a portable 8x8 register-tiled microkernel —
//            plain C loops the compiler can autovectorize;
//   simd     the same blocked engine with an explicit AVX2/FMA (8x8) or
//            AVX-512 (8x32) microkernel, selected by a runtime CPU check.
//
// Selection: DOT_GEMM_KERNEL=naive|blocked|simd in the environment, or
// SetKernel() programmatically (tests/benches). The default is `simd` when
// the build and CPU support it, else `blocked`. Requesting `simd` on an
// unsupported CPU (or in a build without the intrinsics) falls back to
// `blocked` gracefully — ActiveKernel() reports what actually runs.
//
// Arithmetic is fp32 only; DESIGN.md §5e records why.
//
// Determinism: for a fixed kernel, results are bitwise identical for any
// thread count. The engine partitions work across ThreadPool::Global() only
// along output rows/columns (packed-panel writers are disjoint) and keeps a
// fixed k-accumulation order (KC blocks ascending, k ascending inside each
// block), so no floating-point reduction ever depends on the partitioning.
// Tolerance across kernels is documented in DESIGN.md §5e and enforced by
// tests/gemm_differential_test.cc.

#ifndef DOT_TENSOR_GEMM_KERNEL_H_
#define DOT_TENSOR_GEMM_KERNEL_H_

#include <cstdint>

namespace dot {
namespace gemm {

enum class Kernel : int {
  kNaive = 0,
  kBlocked = 1,
  kSimd = 2,
};

/// Operand layout of the product C[m,n] = op(A) * op(B).
enum class Layout : int {
  kNN = 0,  ///< A[m,k] * B[k,n]
  kTA = 1,  ///< A[k,m]^T * B[k,n]
  kTB = 2,  ///< A[m,k] * B[n,k]^T
};

/// Stable lowercase name ("naive", "blocked", "simd").
const char* KernelName(Kernel kernel);

/// Parses a kernel name; returns false (and leaves `out` alone) on unknown
/// input. Accepts exactly the names produced by KernelName().
bool ParseKernelName(const char* name, Kernel* out);

/// True when the SIMD microkernel is compiled in AND the running CPU
/// supports it (AVX2+FMA at minimum; AVX-512F upgrades the tile width).
bool SimdAvailable();

/// The kernel every internal::Gemm* dispatch routes through. Resolved once
/// from DOT_GEMM_KERNEL (falling back to the default described above);
/// SetKernel overrides it for the rest of the process.
Kernel ActiveKernel();

/// Overrides the active kernel. A request for kSimd without SimdAvailable()
/// resolves to kBlocked. Returns the kernel that will actually run.
Kernel SetKernel(Kernel kernel);

/// C[m,n] (+)= op(A) * op(B) with the given kernel. `accumulate` adds into
/// existing C contents, otherwise C is overwritten. Degenerate problems are
/// handled uniformly for every kernel: m==0 or n==0 returns immediately and
/// k==0 only zero-fills C when !accumulate — `a`/`b`/`c` may be null
/// whenever the corresponding operand is empty.
void Run(Kernel kernel, Layout layout, const float* a, const float* b,
         float* c, int64_t m, int64_t k, int64_t n, bool accumulate);

/// The engine's arithmetic, always fp32. Kept only because the serving
/// benchmark's fingerprint records PrecisionName(ActivePrecision()).
enum class Precision { kFp32 };
inline const char* PrecisionName(Precision) { return "fp32"; }
inline Precision ActivePrecision() { return Precision::kFp32; }

}  // namespace gemm
}  // namespace dot

#endif  // DOT_TENSOR_GEMM_KERNEL_H_
