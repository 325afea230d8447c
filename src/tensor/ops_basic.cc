// Elementwise, shape and reduction operators.

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "tensor/ops.h"
#include "tensor/ops_internal.h"

namespace dot {

using internal::AttachNode;
using internal::NeedsGrad;
using internal::RowMajorStrides;

namespace {

// ---- Strided-run walker -----------------------------------------------------
//
// The broadcasting binary ops, AddInPlace_ and Permute walk one row-major
// index space while each operand steps through memory with its own per-dim
// strides (0 on a broadcast dim). The walker drops size-1 dims and merges
// adjacent dims that every operand crosses as one span, then hands each
// innermost run to a tight loop whose strides are 0, 1 or one fixed step.
// Runs arrive in row-major order, so elements are visited exactly as a plain
// N-d index loop visits them: gradients accumulated into a broadcast operand
// keep that loop's summation order, and every result equals its bitwise.

/// The index space `shape` walked by K strided operands; stride[k][d] is
/// operand k's element step along dim d.
template <size_t K>
struct StridedWalk {
  std::vector<int64_t> shape;
  std::array<std::vector<int64_t>, K> stride;

  /// Operand k's element step within a run.
  int64_t step(size_t k) const { return shape.empty() ? 0 : stride[k].back(); }
};

template <size_t K>
StridedWalk<K> MakeWalk(const std::vector<int64_t>& shape,
                        const std::array<std::vector<int64_t>, K>& stride) {
  StridedWalk<K> w;
  for (size_t d = 0; d < shape.size(); ++d) {
    if (shape[d] == 1) continue;
    bool merge = !w.shape.empty();
    for (size_t k = 0; k < K && merge; ++k) {
      merge = w.stride[k].back() == stride[k][d] * shape[d];
    }
    if (merge) {
      w.shape.back() *= shape[d];
    } else {
      w.shape.push_back(shape[d]);
      for (size_t k = 0; k < K; ++k) w.stride[k].push_back(0);
    }
    for (size_t k = 0; k < K; ++k) w.stride[k].back() = stride[k][d];
  }
  return w;
}

/// Calls run(flat, off, len) once per innermost run, in row-major order:
/// `flat` is the run's first row-major index, off[k] operand k's element
/// offset there, and operand k advances by w.step(k) over the `len` elements.
template <size_t K, typename RunFn>
void ForEachRun(const StridedWalk<K>& w, RunFn run) {
  std::array<int64_t, K> off{};
  if (w.shape.empty()) {  // rank 0, or only size-1 dims: a single element
    run(int64_t{0}, off, int64_t{1});
    return;
  }
  const size_t outer = w.shape.size() - 1;
  const int64_t len = w.shape.back();
  const int64_t n = ShapeNumel(w.shape);
  std::vector<int64_t> idx(outer, 0);
  for (int64_t flat = 0; flat < n; flat += len) {
    run(flat, off, len);
    for (size_t d = outer; d-- > 0;) {
      if (++idx[d] < w.shape[d]) {
        for (size_t k = 0; k < K; ++k) off[k] += w.stride[k][d];
        break;
      }
      idx[d] = 0;
      for (size_t k = 0; k < K; ++k) off[k] -= w.stride[k][d] * (w.shape[d] - 1);
    }
  }
}

/// Calls body(step) with a step of 0 or 1 passed as a compile-time constant,
/// so the run loop inside `body` vectorizes for contiguous and broadcast
/// operands; any other step is passed as is.
template <typename Body>
void WithStep(int64_t step, Body body) {
  if (step == 1) {
    body(std::integral_constant<int64_t, 1>{});
  } else if (step == 0) {
    body(std::integral_constant<int64_t, 0>{});
  } else {
    body(step);
  }
}

template <typename Body>
void WithSteps(int64_t sa, int64_t sb, Body body) {
  WithStep(sa, [&](auto ka) { WithStep(sb, [&](auto kb) { body(ka, kb); }); });
}

/// Element strides of `shape` right-aligned against an `nd`-dim broadcast
/// shape: row-major on real dims, 0 on size-1 and missing leading dims.
std::vector<int64_t> BroadcastStrides(const std::vector<int64_t>& shape, size_t nd) {
  std::vector<int64_t> strides = RowMajorStrides(shape);
  std::vector<int64_t> out(nd, 0);
  size_t offset = nd - shape.size();
  for (size_t i = 0; i < shape.size(); ++i) {
    out[offset + i] = (shape[i] == 1) ? 0 : strides[i];
  }
  return out;
}

std::vector<int64_t> BroadcastResult(const Tensor& a, const Tensor& b) {
  return SameShape(a, b) ? a.shape()
                         : internal::BroadcastShape(a.shape(), b.shape());
}

/// Generic broadcasting binary op. `fwd(av,bv)` computes the value;
/// `dfa`/`dfb` compute local derivatives from the two input values.
template <typename F, typename DA, typename DB>
Tensor BinaryOp(const char* name, const Tensor& a, const Tensor& b, F fwd, DA dfa,
                DB dfb) {
  std::vector<int64_t> out_shape = BroadcastResult(a, b);
  const size_t nd = out_shape.size();
  StridedWalk<2> walk = MakeWalk<2>(
      out_shape, {BroadcastStrides(a.shape(), nd), BroadcastStrides(b.shape(), nd)});
  Tensor out = Tensor::Empty(out_shape);
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  WithSteps(walk.step(0), walk.step(1), [&](auto sa, auto sb) {
    ForEachRun(walk, [&](int64_t flat, const std::array<int64_t, 2>& off, int64_t len) {
      const float* ar = ap + off[0];
      const float* br = bp + off[1];
      float* orun = op + flat;
      for (int64_t i = 0; i < len; ++i) orun[i] = fwd(ar[i * sa], br[i * sb]);
    });
  });
  Tensor a_cap = a, b_cap = b;
  AttachNode(&out, name, {a, b}, [a_cap, b_cap, walk, dfa, dfb](const Tensor& o) {
    Tensor a = a_cap, b = b_cap;
    const float* gout = o.grad_vec().data();
    const float* ap = a.data();
    const float* bp = b.data();
    // One pass per input. The two gradient buffers differ unless a and b
    // are one tensor, and then nothing broadcasts, so every element still
    // accumulates in the forward walk's order.
    WithSteps(walk.step(0), walk.step(1), [&](auto sa, auto sb) {
      // Accumulates into operand k's gradient, which steps by `sg`.
      auto pass = [&](float* grad, size_t k, auto sg, auto df) {
        ForEachRun(walk, [&](int64_t flat, const std::array<int64_t, 2>& off,
                             int64_t len) {
          float* g = grad + off[k];
          const float* ar = ap + off[0];
          const float* br = bp + off[1];
          const float* go = gout + flat;
          for (int64_t i = 0; i < len; ++i) {
            g[i * sg] += go[i] * df(ar[i * sa], br[i * sb]);
          }
        });
      };
      if (NeedsGrad(a)) pass(a.grad(), 0, sa, dfa);
      if (NeedsGrad(b)) pass(b.grad(), 1, sb, dfb);
    });
  });
  return out;
}

/// Generic unary op; derivative receives (input value, output value).
template <typename F, typename D>
Tensor UnaryOp(const char* name, const Tensor& a, F fwd, D dfdx) {
  Tensor out = Tensor::Empty(a.shape());
  const float* ap = a.data();
  float* op = out.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) op[i] = fwd(ap[i]);
  Tensor a_cap = a;
  AttachNode(&out, name, {a}, [a_cap, dfdx](const Tensor& o) {
    Tensor a = a_cap;
    const float* gout = o.grad_vec().data();
    const float* ap = a.data();
    const float* op = o.data();
    float* ga = a.grad();
    int64_t n = o.numel();
    for (int64_t i = 0; i < n; ++i) ga[i] += gout[i] * dfdx(ap[i], op[i]);
  });
  return out;
}

}  // namespace

namespace internal {

std::vector<int64_t> BroadcastShape(const std::vector<int64_t>& a,
                                    const std::vector<int64_t>& b) {
  size_t nd = std::max(a.size(), b.size());
  std::vector<int64_t> out(nd);
  for (size_t i = 0; i < nd; ++i) {
    int64_t da = i < nd - a.size() ? 1 : a[i - (nd - a.size())];
    int64_t db = i < nd - b.size() ? 1 : b[i - (nd - b.size())];
    DOT_CHECK(da == db || da == 1 || db == 1)
        << "broadcast mismatch at dim " << i << ": " << da << " vs " << db;
    out[i] = std::max(da, db);
  }
  return out;
}

}  // namespace internal

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "div", a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      "add_scalar", a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      "mul_scalar", a, [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      "exp", a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      "log", a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      "sqrt", a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / y; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      "square", a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      "abs", a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x >= 0 ? 1.0f : -1.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      "sigmoid", a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      "relu", a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float x, float) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  // tanh approximation: 0.5*x*(1+tanh(sqrt(2/pi)*(x+0.044715 x^3))), with
  // tanh itself the branch-free rational fit, so the loops vectorize.
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  return UnaryOp(
      "gelu", a,
      [](float x) {
        float inner = kC * (x + kA * x * x * x);
        return 0.5f * x * (1.0f + internal::TanhApprox(inner));
      },
      [](float x, float) {
        float x3 = x * x * x;
        float inner = kC * (x + kA * x3);
        float t = internal::TanhApprox(inner);
        float dinner = kC * (1.0f + 3.0f * kA * x * x);
        return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
      });
}

Tensor Silu(const Tensor& a) {
  return UnaryOp(
      "silu", a,
      [](float x) { return x / (1.0f + std::exp(-x)); },
      [](float x, float) {
        float s = 1.0f / (1.0f + std::exp(-x));
        return s * (1.0f + x * (1.0f - s));
      });
}

// ---- Shape ops --------------------------------------------------------------

namespace {

std::string ShapeToString(const std::vector<int64_t>& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

}  // namespace

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  const std::vector<int64_t> requested = shape;
  int64_t known = 1;
  int64_t infer = -1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      DOT_CHECK(infer == -1) << "Reshape: multiple -1 dims in "
                             << ShapeToString(requested);
      infer = static_cast<int64_t>(i);
    } else {
      DOT_CHECK(shape[i] >= 0) << "Reshape: invalid dim " << shape[i] << " in "
                               << ShapeToString(requested);
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    DOT_CHECK(known > 0 && a.numel() % known == 0)
        << "Reshape: cannot infer -1 dim: " << a.ShapeString() << " ("
        << a.numel() << " elements) does not divide into "
        << ShapeToString(requested);
    shape[static_cast<size_t>(infer)] = a.numel() / known;
  }
  DOT_CHECK(ShapeNumel(shape) == a.numel())
      << "Reshape: element count mismatch: " << a.ShapeString() << " ("
      << a.numel() << " elements) -> " << ShapeToString(requested) << " ("
      << ShapeNumel(shape) << " elements)";
  // Zero-copy alias: the reshaped tensor shares a's Storage.
  Tensor out = Tensor::View(a, std::move(shape));
  Tensor a_cap = a;
  AttachNode(&out, "reshape", {a}, [a_cap](const Tensor& o) {
    Tensor a = a_cap;
    a.AccumulateGrad(o.grad_vec().data(), o.numel());
  });
  return out;
}

Tensor Flatten(const Tensor& a) { return Reshape(a, {a.numel()}); }

Tensor Transpose2D(const Tensor& a) {
  DOT_CHECK(a.dim() == 2) << "Transpose2D needs 2-D input";
  return Permute(a, {1, 0});
}

Tensor Permute(const Tensor& a, std::vector<int64_t> perm) {
  DOT_CHECK(static_cast<int64_t>(perm.size()) == a.dim()) << "Permute rank mismatch";
  std::vector<int64_t> out_shape(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) out_shape[i] = a.size(perm[i]);
  Tensor out = Tensor::Empty(out_shape);
  std::vector<int64_t> in_stride = RowMajorStrides(a.shape());
  std::vector<int64_t> mapped(perm.size());  // stride of out-dim d within input
  for (size_t d = 0; d < perm.size(); ++d) {
    mapped[d] = in_stride[static_cast<size_t>(perm[d])];
  }
  StridedWalk<1> walk = MakeWalk<1>(out_shape, {mapped});
  const float* ap = a.data();
  float* op = out.data();
  WithStep(walk.step(0), [&](auto s) {
    ForEachRun(walk, [&](int64_t flat, const std::array<int64_t, 1>& off, int64_t len) {
      const float* ar = ap + off[0];
      float* orun = op + flat;
      for (int64_t i = 0; i < len; ++i) orun[i] = ar[i * s];
    });
  });
  Tensor a_cap = a;
  AttachNode(&out, "permute", {a}, [a_cap, walk](const Tensor& o) {
    Tensor a = a_cap;
    float* ga = a.grad();
    const float* gout = o.grad_vec().data();
    WithStep(walk.step(0), [&](auto s) {
      ForEachRun(walk, [&](int64_t flat, const std::array<int64_t, 1>& off,
                           int64_t len) {
        float* g = ga + off[0];
        const float* go = gout + flat;
        for (int64_t i = 0; i < len; ++i) g[i * s] += go[i];
      });
    });
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  DOT_CHECK(!parts.empty()) << "Concat of zero tensors";
  if (axis < 0) axis += parts[0].dim();
  std::vector<int64_t> out_shape = parts[0].shape();
  int64_t total = 0;
  for (const auto& p : parts) {
    DOT_CHECK(p.dim() == parts[0].dim()) << "Concat rank mismatch";
    for (int64_t d = 0; d < p.dim(); ++d) {
      if (d != axis) DOT_CHECK(p.size(d) == out_shape[static_cast<size_t>(d)]);
    }
    total += p.size(axis);
  }
  out_shape[static_cast<size_t>(axis)] = total;
  Tensor out = Tensor::Empty(out_shape);

  // Treat tensors as [outer, axis_len, inner] blocks.
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= out_shape[static_cast<size_t>(d)];
  for (int64_t d = axis + 1; d < parts[0].dim(); ++d) {
    inner *= out_shape[static_cast<size_t>(d)];
  }
  float* op = out.data();
  int64_t out_row = total * inner;
  int64_t offset = 0;
  for (const auto& p : parts) {
    int64_t len = p.size(axis) * inner;
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(pp + o * len, pp + (o + 1) * len, op + o * out_row + offset);
    }
    offset += len;
  }
  std::vector<Tensor> caps = parts;
  AttachNode(&out, "concat", parts,
             [caps, outer, inner, total](const Tensor& o) {
               const float* gout = o.grad_vec().data();
               int64_t out_row = total * inner;
               int64_t offset = 0;
               for (auto part : caps) {
                 int64_t axis_len = part.numel() / (outer * inner);
                 int64_t row = axis_len * inner;
                 if (NeedsGrad(part)) {
                   float* gp = part.grad();
                   for (int64_t oo = 0; oo < outer; ++oo) {
                     const float* src = gout + oo * out_row + offset;
                     float* dst = gp + oo * row;
                     for (int64_t i = 0; i < row; ++i) dst[i] += src[i];
                   }
                 }
                 offset += row;
               }
             });
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len) {
  if (axis < 0) axis += a.dim();
  DOT_CHECK(axis >= 0 && axis < a.dim()) << "Slice axis out of range";
  DOT_CHECK(start >= 0 && len >= 0 && start + len <= a.size(axis))
      << "Slice bounds: [" << start << ", " << start + len << ") of "
      << a.ShapeString() << " axis " << axis;
  std::vector<int64_t> out_shape = a.shape();
  out_shape[static_cast<size_t>(axis)] = len;
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  int64_t in_row = a.size(axis) * inner;
  int64_t out_row = len * inner;
  Tensor out;
  if (outer == 1) {
    // Contiguous slice (axis 0, or every leading dim is 1): the selected
    // elements are one contiguous run — alias them instead of copying.
    out = Tensor::View(a, out_shape, start * inner);
  } else {
    out = Tensor::Empty(out_shape);
    const float* ap = a.data();
    float* op = out.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::copy(ap + o * in_row + start * inner,
                ap + o * in_row + (start + len) * inner, op + o * out_row);
    }
  }
  Tensor a_cap = a;
  AttachNode(&out, "slice", {a},
             [a_cap, outer, inner, in_row, out_row, start](const Tensor& o) {
               Tensor a = a_cap;
               float* ga = a.grad();
               const float* gout = o.grad_vec().data();
               for (int64_t oo = 0; oo < outer; ++oo) {
                 float* dst = ga + oo * in_row + start * inner;
                 const float* src = gout + oo * out_row;
                 for (int64_t i = 0; i < out_row; ++i) dst[i] += src[i];
               }
             });
  return out;
}

Tensor Rows(const Tensor& a, const std::vector<int64_t>& ids) {
  DOT_CHECK(a.dim() == 2) << "Rows needs a 2-D table";
  int64_t d = a.size(1);
  Tensor out = Tensor::Empty({static_cast<int64_t>(ids.size()), d});
  const float* ap = a.data();
  float* op = out.data();
  for (size_t i = 0; i < ids.size(); ++i) {
    int64_t r = ids[i];
    DOT_CHECK(r >= 0 && r < a.size(0)) << "Rows: index out of range";
    std::copy(ap + r * d, ap + (r + 1) * d, op + static_cast<int64_t>(i) * d);
  }
  Tensor a_cap = a;
  std::vector<int64_t> ids_cap = ids;
  AttachNode(&out, "rows", {a}, [a_cap, ids_cap, d](const Tensor& o) {
    Tensor a = a_cap;
    float* ga = a.grad();
    const float* gout = o.grad_vec().data();
    for (size_t i = 0; i < ids_cap.size(); ++i) {
      float* dst = ga + ids_cap[i] * d;
      const float* src = gout + static_cast<int64_t>(i) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  });
  return out;
}

// ---- Reductions --------------------------------------------------------------

Tensor Sum(const Tensor& a) {
  double acc = 0;
  const float* ap = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) acc += ap[i];
  Tensor out = Tensor::FromVector({1}, {static_cast<float>(acc)});
  Tensor a_cap = a;
  AttachNode(&out, "sum", {a}, [a_cap](const Tensor& o) {
    Tensor a = a_cap;
    float g = o.grad_vec()[0];
    float* ga = a.grad();
    for (int64_t i = 0; i < a.numel(); ++i) ga[i] += g;
  });
  return out;
}

Tensor Mean(const Tensor& a) {
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumAxis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.dim();
  DOT_CHECK(axis >= 0 && axis < a.dim()) << "SumAxis axis out of range";
  int64_t outer = 1, inner = 1, len = a.size(axis);
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  std::vector<int64_t> out_shape;
  for (int64_t d = 0; d < a.dim(); ++d) {
    if (d == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.size(d));
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out = Tensor::Zeros(out_shape);
  const float* ap = a.data();
  float* op = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t l = 0; l < len; ++l) {
      const float* src = ap + (o * len + l) * inner;
      float* dst = op + o * inner;
      for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  Tensor a_cap = a;
  AttachNode(&out, "sum_axis", {a},
             [a_cap, outer, inner, len](const Tensor& o) {
               Tensor a = a_cap;
               float* ga = a.grad();
               const float* gout = o.grad_vec().data();
               for (int64_t oo = 0; oo < outer; ++oo) {
                 for (int64_t l = 0; l < len; ++l) {
                   float* dst = ga + (oo * len + l) * inner;
                   const float* src = gout + oo * inner;
                   for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
                 }
               }
             });
  return out;
}

Tensor MeanAxis(const Tensor& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.dim();
  return MulScalar(SumAxis(a, axis, keepdim), 1.0f / static_cast<float>(a.size(axis)));
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  DOT_CHECK(SameShape(pred, target)) << "MseLoss shape mismatch";
  return Mean(Square(Sub(pred, target)));
}

// ---- In-place (inference-only) ----------------------------------------------
// These mutate their first argument's buffer, so they are forbidden while
// autograd is recording: a graph node may hold the pre-mutation values for
// its backward pass. The iteration order matches the out-of-place ops
// exactly, so `AddInPlace_(a, b)` is bitwise identical to `a = Add(a, b)`.

Tensor& AddInPlace_(Tensor& a, const Tensor& b) {
  DOT_CHECK(!GradModeEnabled())
      << "AddInPlace_ while autograd is recording (wrap in NoGradGuard)";
  std::vector<int64_t> out_shape = BroadcastResult(a, b);
  DOT_CHECK(out_shape == a.shape())
      << "AddInPlace_: broadcasting " << b.ShapeString()
      << " would change the target shape " << a.ShapeString();
  StridedWalk<1> walk =
      MakeWalk<1>(out_shape, {BroadcastStrides(b.shape(), out_shape.size())});
  float* ap = a.data();
  const float* bp = b.data();
  WithStep(walk.step(0), [&](auto sb) {
    ForEachRun(walk, [&](int64_t flat, const std::array<int64_t, 1>& off, int64_t len) {
      float* ar = ap + flat;
      const float* br = bp + off[0];
      for (int64_t i = 0; i < len; ++i) ar[i] += br[i * sb];
    });
  });
  return a;
}

Tensor& Scale_(Tensor& a, float s) {
  DOT_CHECK(!GradModeEnabled())
      << "Scale_ while autograd is recording (wrap in NoGradGuard)";
  float* ap = a.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) ap[i] *= s;
  return a;
}

Tensor AddReuse(Tensor a, const Tensor& b) {
  if (GradModeEnabled()) return Add(a, b);
  AddInPlace_(a, b);
  return a;
}

Tensor ScaleReuse(Tensor a, float s) {
  if (GradModeEnabled()) return MulScalar(a, s);
  Scale_(a, s);
  return a;
}

}  // namespace dot
