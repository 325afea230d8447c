// A minimal float32 tensor with reverse-mode automatic differentiation.
//
// This is the training substrate for the DOT reproduction: the conditioned
// PiT denoiser (UNet), the MViT estimator, and all neural baselines are
// trained with it. Design notes:
//   * Row-major, always-contiguous data backed by pooled Storage
//     (tensor/storage.h): a TensorImpl is a (storage, offset, shape)
//     triple. Reshape / Detach / Flatten and contiguous axis-0 Slice are
//     zero-copy aliases into the same Storage; everything else copies.
//     Aliasing contract: writes through a view are visible in the base (and
//     vice versa); Clone() is the only guaranteed deep copy.
//   * Tensor::Empty contents are UNINITIALIZED — recycled pool buffers hold
//     stale bytes (or NaN poison under DOT_POOL_POISON). Every op must
//     write each output element; use Zeros when zero-fill is part of the
//     contract.
//   * Define-by-run autograd: each op may attach a GradFn node holding its
//     inputs and a backward closure; Tensor::Backward() runs a topological
//     sweep and accumulates gradients into leaf tensors. Gradient buffers
//     are per-impl (never shared between views); view ops route gradients
//     to their base through their backward node like any other op.
//   * A global grad-mode flag (NoGradGuard) disables graph construction
//     during inference (e.g. the 1000-step diffusion sampling loop).

#ifndef DOT_TENSOR_TENSOR_H_
#define DOT_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/storage.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dot {

class Tensor;

namespace internal {

/// Backward-graph node: knows its input tensors and how to push the output
/// gradient back into them.
struct GradFn {
  std::string name;
  std::vector<Tensor> inputs;
  // Called with the output tensor (whose grad is fully accumulated).
  std::function<void(const Tensor& out)> backward;
};

struct TensorImpl {
  std::vector<int64_t> shape;
  std::shared_ptr<Storage> storage;  // pooled buffer (possibly shared by views)
  int64_t offset = 0;                // float offset of element 0 into storage
  int64_t numel = 0;
  std::vector<float> grad;  // same size as numel once touched; empty otherwise
  bool requires_grad = false;
  std::shared_ptr<GradFn> grad_fn;  // non-null only for non-leaf outputs
};

}  // namespace internal

/// True when autograd graph construction is enabled (default).
bool GradModeEnabled();

/// \brief RAII guard that disables autograd within its scope. Nests: the
/// destructor restores the mode that was active at construction.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// \brief Shared-ownership handle to a float32 n-dimensional array.
///
/// Copying a Tensor copies the handle, not the data (PyTorch semantics).
/// Use Clone() for a deep copy.
class Tensor {
 public:
  /// An empty (null) tensor. defined() is false.
  Tensor() = default;

  bool defined() const { return impl_ != nullptr; }

  // ---- Creation -----------------------------------------------------------

  /// Uninitialized tensor of the given shape (see file comment: contents
  /// are stale pool bytes — every element must be written before reading).
  static Tensor Empty(std::vector<int64_t> shape);
  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Ones(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  /// Standard-normal entries drawn from `rng`.
  static Tensor Randn(std::vector<int64_t> shape, Rng* rng);
  /// Uniform entries in [lo, hi).
  static Tensor Rand(std::vector<int64_t> shape, Rng* rng, float lo = 0.f,
                     float hi = 1.f);
  /// Copies `values` (size must match the shape's element count).
  static Tensor FromVector(std::vector<int64_t> shape, std::vector<float> values);
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor Arange(int64_t n);

  // ---- Shape --------------------------------------------------------------

  const std::vector<int64_t>& shape() const { return impl_->shape; }
  int64_t dim() const { return static_cast<int64_t>(impl_->shape.size()); }
  int64_t size(int64_t d) const;
  int64_t numel() const { return impl_->numel; }

  // ---- Data access --------------------------------------------------------

  float* data() { return impl_->storage->data() + impl_->offset; }
  const float* data() const { return impl_->storage->data() + impl_->offset; }

  /// Element access by flat index.
  float& at(int64_t i) { return data()[i]; }
  float at(int64_t i) const { return data()[i]; }

  /// Value of a 0-d or 1-element tensor.
  float item() const;

  /// Copies the elements out into a std::vector.
  std::vector<float> ToVector() const;
  /// Overwrites the elements from `values` (size must equal numel()).
  void CopyFrom(const std::vector<float>& values);
  /// Overwrites the elements from `src` (shapes' element counts must match).
  void CopyDataFrom(const Tensor& src);
  /// Sets every element to `value`.
  void Fill(float value);

  /// Deep copy (detached from the autograd graph; never aliases).
  Tensor Clone() const;
  /// Same data, detached from the graph. Zero-copy: shares this tensor's
  /// Storage (writes through either handle are visible in both).
  Tensor Detach() const;

  // ---- Autograd -----------------------------------------------------------

  bool requires_grad() const { return impl_->requires_grad; }
  Tensor& set_requires_grad(bool v) {
    impl_->requires_grad = v;
    return *this;
  }

  /// Gradient buffer; allocated (zero-filled) on first access.
  float* grad();
  const std::vector<float>& grad_vec() const { return impl_->grad; }
  bool has_grad() const { return !impl_->grad.empty(); }
  /// Zeroes the gradient buffer if allocated.
  void ZeroGrad();

  /// Runs reverse-mode differentiation from this (scalar) tensor.
  /// Seeds d(this)/d(this) = 1. Dies with a diagnostic when called on a
  /// non-scalar, or on a tensor that neither requires grad nor has a
  /// backward graph (e.g. one produced under NoGradGuard).
  void Backward();

  // ---- Introspection ------------------------------------------------------

  std::string ShapeString() const;
  /// Debug rendering (small tensors only).
  std::string ToString() const;
  /// True if this tensor shares its Storage with `other` (aliasing views).
  bool SharesStorageWith(const Tensor& other) const {
    return defined() && other.defined() && impl_->storage == other.impl_->storage;
  }

  // ---- Internal (used by ops.cc / nn.cc) ----------------------------------

  internal::TensorImpl* impl() const { return impl_.get(); }
  void set_grad_fn(std::shared_ptr<internal::GradFn> fn) {
    impl_->grad_fn = std::move(fn);
  }
  const std::shared_ptr<internal::GradFn>& grad_fn() const {
    return impl_->grad_fn;
  }
  /// Accumulates `delta` (size numel()) into the grad buffer.
  void AccumulateGrad(const float* delta, int64_t n);

  /// Zero-copy view of `base` with a new shape, starting `offset` floats
  /// into base's elements (shape's element count + offset must fit in
  /// base). The view is a fresh autograd node (no grad_fn, own grad
  /// buffer); callers attach backward nodes as for any op output.
  static Tensor View(const Tensor& base, std::vector<int64_t> shape,
                     int64_t offset = 0);

 private:
  explicit Tensor(std::shared_ptr<internal::TensorImpl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<internal::TensorImpl> impl_;
};

/// Number of elements implied by a shape.
int64_t ShapeNumel(const std::vector<int64_t>& shape);

/// True if two shapes are identical.
bool SameShape(const Tensor& a, const Tensor& b);

}  // namespace dot

#endif  // DOT_TENSOR_TENSOR_H_
