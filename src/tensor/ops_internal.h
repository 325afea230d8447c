// Helpers shared by the ops_*.cc translation units. Not part of the public API.

#ifndef DOT_TENSOR_OPS_INTERNAL_H_
#define DOT_TENSOR_OPS_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace dot {
namespace internal {

// ---- Raw GEMM kernels (no autograd; exposed for reuse and testing) ----------
// Dispatchers through the process-wide kernel selected by DOT_GEMM_KERNEL /
// gemm::SetKernel (see tensor/gemm_kernel.h). Degenerate products are safe:
// m==0 or n==0 returns immediately, k==0 only zero-fills C when !accumulate,
// and null pointers are allowed for empty operands.

/// C[m,n] (+)= A[m,k] * B[k,n]; `accumulate` keeps existing C contents.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate);
/// C = A^T * B with A[k,m], B[k,n] -> C[m,n].
void GemmTA(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, bool accumulate);
/// C = A * B^T with A[m,k], B[n,k] -> C[m,n].
void GemmTB(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, bool accumulate);

/// True if gradients must flow through `t` (leaf parameter or graph output).
inline bool NeedsGrad(const Tensor& t) {
  return t.requires_grad() || t.grad_fn() != nullptr;
}

/// Attaches a backward node to `out` when autograd is active and at least one
/// input participates in differentiation.
inline void AttachNode(Tensor* out, const char* name, std::vector<Tensor> inputs,
                       std::function<void(const Tensor&)> backward) {
  if (!GradModeEnabled()) return;
  bool any = false;
  for (const auto& t : inputs) any = any || NeedsGrad(t);
  if (!any) return;
  auto fn = std::make_shared<GradFn>();
  fn->name = name;
  fn->inputs = std::move(inputs);
  fn->backward = std::move(backward);
  out->set_grad_fn(std::move(fn));
}

/// tanh on float, branch-free so elementwise loops over it vectorize: within
/// 2.92e-7 of the exact value for every float input (checked exhaustively),
/// exactly +-1 from |x| = 7.9988 on, NaN for NaN. Gelu's tanh; Tanh() keeps
/// std::tanh.
inline float TanhApprox(float x) {
  // tanh(x) ~ x * P(x^2) / Q(x^2): the degree-13/6 odd/even rational minimax
  // fit for float that Eigen also uses. Evaluated with fma Horner steps it
  // reaches exactly +-1 at the clamp, where tanh is within 2.3e-7 of +-1;
  // below 4e-4, x itself is closer than the fit.
  constexpr float kClamp = 7.99881172180175781f;
  constexpr float kTiny = 0.0004f;
  const float xc = std::max(std::min(x, kClamp), -kClamp);
  const float x2 = xc * xc;
  float p = std::fma(x2, -2.76076847742355e-16f, 2.00018790482477e-13f);
  p = std::fma(x2, p, -8.60467152213735e-11f);
  p = std::fma(x2, p, 5.12229709037114e-08f);
  p = std::fma(x2, p, 1.48572235717979e-05f);
  p = std::fma(x2, p, 6.37261928875436e-04f);
  p = std::fma(x2, p, 4.89352455891786e-03f);
  float q = std::fma(x2, 1.19825839466702e-06f, 1.18534705686654e-04f);
  q = std::fma(x2, q, 2.26843463243900e-03f);
  q = std::fma(x2, q, 4.89352518554385e-03f);
  const float t = xc * p / q;
  return std::fabs(x) < kTiny ? x : t;
}

/// Row-major (C) strides of a contiguous shape.
inline std::vector<int64_t> RowMajorStrides(const std::vector<int64_t>& shape) {
  std::vector<int64_t> s(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    s[static_cast<size_t>(i)] = s[static_cast<size_t>(i + 1)] * shape[static_cast<size_t>(i + 1)];
  }
  return s;
}

}  // namespace internal
}  // namespace dot

#endif  // DOT_TENSOR_OPS_INTERNAL_H_
