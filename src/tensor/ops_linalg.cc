// Matrix multiplication dispatch and differentiable wrappers.
//
// The kernel bodies live in gemm_kernel.cc; internal::Gemm* are thin
// dispatchers through the process-wide kernel choice (DOT_GEMM_KERNEL /
// gemm::SetKernel), so conv2d, MatMul/BatchMatMul (attention), and every FC
// layer all route through the same engine.

#include "obs/profile.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/ops_internal.h"

namespace dot {

using internal::AttachNode;
using internal::NeedsGrad;

namespace internal {

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate) {
  gemm::Run(gemm::ActiveKernel(), gemm::Layout::kNN, a, b, c, m, k, n,
            accumulate);
}

void GemmTA(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, bool accumulate) {
  // A is [k, m]; C[i, j] = sum_kk A[kk, i] * B[kk, j].
  gemm::Run(gemm::ActiveKernel(), gemm::Layout::kTA, a, b, c, m, k, n,
            accumulate);
}

void GemmTB(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, bool accumulate) {
  // B is [n, k]; C[i, j] = dot(A[i, :], B[j, :]).
  gemm::Run(gemm::ActiveKernel(), gemm::Layout::kTB, a, b, c, m, k, n,
            accumulate);
}

}  // namespace internal

Tensor MatMul(const Tensor& a, const Tensor& b) {
  DOT_CHECK(a.dim() == 2 && b.dim() == 2) << "MatMul needs 2-D inputs";
  int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  DOT_CHECK(b.size(0) == k) << "MatMul inner-dim mismatch: " << a.ShapeString()
                            << " x " << b.ShapeString();
  obs::OpTimer op_timer(obs::OpKind::kGemm,
                        2.0 * static_cast<double>(m) * static_cast<double>(k) *
                            static_cast<double>(n));
  Tensor out = Tensor::Empty({m, n});
  internal::Gemm(a.data(), b.data(), out.data(), m, k, n,
                 /*accumulate=*/false);
  Tensor a_cap = a, b_cap = b;
  AttachNode(&out, "matmul", {a, b}, [a_cap, b_cap, m, k, n](const Tensor& o) {
    Tensor a = a_cap, b = b_cap;
    const float* gout = o.grad_vec().data();
    if (NeedsGrad(a)) {
      // dA = dC * B^T : [m,n] x [k,n]^T -> [m,k]
      internal::GemmTB(gout, b.data(), a.grad(), m, n, k, /*accumulate=*/true);
    }
    if (NeedsGrad(b)) {
      // dB = A^T * dC : [m,k]^T x [m,n] -> [k,n]
      internal::GemmTA(a.data(), gout, b.grad(), k, m, n, /*accumulate=*/true);
    }
  });
  return out;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  DOT_CHECK(a.dim() == 3 && b.dim() == 3) << "BatchMatMul needs 3-D inputs";
  int64_t bs = a.size(0), m = a.size(1), k = a.size(2), n = b.size(2);
  DOT_CHECK(b.size(0) == bs && b.size(1) == k)
      << "BatchMatMul shape mismatch: " << a.ShapeString() << " x "
      << b.ShapeString();
  obs::OpTimer op_timer(obs::OpKind::kGemm,
                        2.0 * static_cast<double>(bs) * static_cast<double>(m) *
                            static_cast<double>(k) * static_cast<double>(n));
  Tensor out = Tensor::Empty({bs, m, n});
  for (int64_t i = 0; i < bs; ++i) {
    internal::Gemm(a.data() + i * m * k, b.data() + i * k * n,
                   out.data() + i * m * n, m, k, n, /*accumulate=*/false);
  }
  Tensor a_cap = a, b_cap = b;
  AttachNode(&out, "bmm", {a, b}, [a_cap, b_cap, bs, m, k, n](const Tensor& o) {
    Tensor a = a_cap, b = b_cap;
    const float* gout = o.grad_vec().data();
    bool need_a = NeedsGrad(a), need_b = NeedsGrad(b);
    float* ga = need_a ? a.grad() : nullptr;
    float* gb = need_b ? b.grad() : nullptr;
    for (int64_t i = 0; i < bs; ++i) {
      const float* g = gout + i * m * n;
      if (need_a) {
        internal::GemmTB(g, b.data() + i * k * n, ga + i * m * k, m, n, k, true);
      }
      if (need_b) {
        internal::GemmTA(a.data() + i * m * k, g, gb + i * k * n, k, m, n, true);
      }
    }
  });
  return out;
}

}  // namespace dot
