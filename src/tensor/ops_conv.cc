// Convolution, pooling and upsampling for NCHW tensors.
//
// Conv2d lowers the whole batch to a single GEMM: im2col writes every
// sample's patch matrix into one [C*KH*KW, B*OH*OW] buffer so the matrix
// product runs with a long streaming dimension (order-of-magnitude better
// throughput on one core than per-sample GEMMs). The products route
// through the blocked/SIMD engine behind internal::Gemm* (DOT_GEMM_KERNEL,
// see tensor/gemm_kernel.h); per-element results are independent of the
// batch position, so batched and per-sample convs stay bitwise equal under
// every kernel. The backward pass recomputes the column buffer
// (memory-for-time trade-off appropriate to the small PiT images this
// library trains on).
//
// The im2col / col2im / output-scatter loops are partitioned over
// ThreadPool::Global() by (sample, channel) — each work item writes a
// disjoint region of the destination buffer and performs no cross-item
// reduction, so results are bitwise identical for any thread count (the
// determinism the batched serving path and determinism_test rely on).

#include <algorithm>

#include "obs/profile.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/ops_internal.h"
#include "util/thread_pool.h"

namespace dot {

using internal::AttachNode;
using internal::NeedsGrad;

namespace {

struct ConvDims {
  int64_t n, c, h, w;      // input
  int64_t oc, kh, kw;      // kernel
  int64_t oh, ow;          // output
  int64_t stride, pad;
  int64_t ckk() const { return c * kh * kw; }
  int64_t ohw() const { return oh * ow; }
};

/// Picks a ParallelFor chunk size so each task covers at least
/// `kMinParallelElems` written elements (`per_item` = elements per item).
int64_t ChunkFor(int64_t per_item) {
  constexpr int64_t kMinParallelElems = 4096;
  return std::max<int64_t>(1, kMinParallelElems / std::max<int64_t>(1, per_item));
}

/// Output positions [lo, hi) along one axis whose input index
/// o * stride + k - pad falls inside [0, in) for kernel offset k.
struct ValidSpan {
  int64_t lo, hi;
};

ValidSpan ValidOutputs(int64_t k, int64_t pad, int64_t stride, int64_t in,
                       int64_t out) {
  int64_t lo = pad > k ? (pad - k + stride - 1) / stride : 0;
  int64_t last = in - 1 + pad - k;  // largest o * stride that stays inside
  int64_t hi = last < 0 ? 0 : last / stride + 1;
  lo = std::min(lo, out);
  return {lo, std::clamp(hi, lo, out)};
}

/// Expands one (sample, channel) plane into the batch column buffer: row r
/// of the patch matrix lands at col + r * row_stride + col_offset. For each
/// (kh, kw) the padding rows and columns are zero-filled and the valid block
/// is copied: as one shifted contiguous run of the plane when stride is 1 and
/// the output is as wide as the input (a "same" conv: output row oh reads
/// input row oh + kh - pad at one fixed column shift), else row by row.
void Im2ColChannel(const float* xc, const ConvDims& d, int64_t c, float* col,
                   int64_t row_stride, int64_t col_offset) {
  const bool shifted_plane = d.stride == 1 && d.ow == d.w;
  for (int64_t kh = 0; kh < d.kh; ++kh) {
    const ValidSpan rows = ValidOutputs(kh, d.pad, d.stride, d.h, d.oh);
    for (int64_t kw = 0; kw < d.kw; ++kw) {
      const ValidSpan cols = ValidOutputs(kw, d.pad, d.stride, d.w, d.ow);
      float* crow = col + ((c * d.kh + kh) * d.kw + kw) * row_stride + col_offset;
      std::fill(crow, crow + rows.lo * d.ow, 0.0f);
      std::fill(crow + rows.hi * d.ow, crow + d.oh * d.ow, 0.0f);
      if (rows.lo == rows.hi) continue;
      const int64_t n = cols.hi - cols.lo;
      if (n > 0 && shifted_plane) {
        // Copies from the first valid element to the last; the pad columns
        // in between pick up neighbouring input rows and are re-zeroed below.
        const int64_t shift = (kh - d.pad) * d.w + (kw - d.pad);
        const int64_t first = rows.lo * d.ow + cols.lo;
        const int64_t last = (rows.hi - 1) * d.ow + cols.hi;
        std::copy(xc + first + shift, xc + last + shift, crow + first);
      } else if (n > 0) {
        for (int64_t oh = rows.lo; oh < rows.hi; ++oh) {
          const float* src = xc + (oh * d.stride + kh - d.pad) * d.w +
                             cols.lo * d.stride + kw - d.pad;
          float* dst = crow + oh * d.ow + cols.lo;
          if (d.stride == 1) {
            std::copy(src, src + n, dst);
          } else {
            for (int64_t i = 0; i < n; ++i) dst[i] = src[i * d.stride];
          }
        }
      }
      for (int64_t oh = rows.lo; oh < rows.hi; ++oh) {
        float* dst = crow + oh * d.ow;
        std::fill(dst, dst + cols.lo, 0.0f);
        std::fill(dst + cols.hi, dst + d.ow, 0.0f);
      }
    }
  }
}

/// Scatter-adds one (sample, channel) plane's column gradients (strided
/// layout) back into that plane's input gradient.
void Col2ImChannel(const float* col, const ConvDims& d, int64_t c,
                   int64_t row_stride, int64_t col_offset, float* gc) {
  for (int64_t kh = 0; kh < d.kh; ++kh) {
    for (int64_t kw = 0; kw < d.kw; ++kw) {
      const float* crow =
          col + ((c * d.kh + kh) * d.kw + kw) * row_stride + col_offset;
      for (int64_t oh = 0; oh < d.oh; ++oh) {
        int64_t ih = oh * d.stride + kh - d.pad;
        if (ih < 0 || ih >= d.h) continue;
        const float* src = crow + oh * d.ow;
        float* dst = gc + ih * d.w;
        for (int64_t ow = 0; ow < d.ow; ++ow) {
          int64_t iw = ow * d.stride + kw - d.pad;
          if (iw >= 0 && iw < d.w) dst[iw] += src[ow];
        }
      }
    }
  }
}

/// Fills the batch column buffer [CKK, B*OHW] from an NCHW input,
/// partitioned over the pool by (sample, channel) plane. Each plane writes
/// a disjoint set of column-buffer rows/columns, so the result does not
/// depend on the partitioning.
void BatchIm2Col(const float* x, const ConvDims& d, float* col) {
  int64_t total = d.n * d.ohw();
  int64_t items = d.n * d.c;
  ParallelFor(
      ThreadPool::Global(), items,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          int64_t b = i / d.c, c = i % d.c;
          Im2ColChannel(x + (b * d.c + c) * d.h * d.w, d, c, col, total,
                        b * d.ohw());
        }
      },
      ChunkFor(d.kh * d.kw * d.ohw()));
}

/// Scatters the whole batch's column gradients back into the input
/// gradient, partitioned like BatchIm2Col. Each (sample, channel) plane
/// accumulates only into its own gx slice in a fixed loop order.
void BatchCol2Im(const float* col, const ConvDims& d, float* gx) {
  int64_t total = d.n * d.ohw();
  int64_t items = d.n * d.c;
  ParallelFor(
      ThreadPool::Global(), items,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          int64_t b = i / d.c, c = i % d.c;
          Col2ImChannel(col, d, c, total, b * d.ohw(),
                        gx + (b * d.c + c) * d.h * d.w);
        }
      },
      ChunkFor(d.kh * d.kw * d.ohw()));
}

}  // namespace

Tensor Conv2d(const Tensor& x, const Tensor& w, const Tensor& bias, int64_t stride,
              int64_t padding) {
  DOT_CHECK(x.dim() == 4 && w.dim() == 4) << "Conv2d needs NCHW input and OIHW kernel";
  ConvDims d;
  d.n = x.size(0);
  d.c = x.size(1);
  d.h = x.size(2);
  d.w = x.size(3);
  d.oc = w.size(0);
  DOT_CHECK(w.size(1) == d.c) << "Conv2d channel mismatch";
  d.kh = w.size(2);
  d.kw = w.size(3);
  d.stride = stride;
  d.pad = padding;
  d.oh = (d.h + 2 * padding - d.kh) / stride + 1;
  d.ow = (d.w + 2 * padding - d.kw) / stride + 1;
  DOT_CHECK(d.oh > 0 && d.ow > 0) << "Conv2d output collapsed to zero";
  bool has_bias = bias.defined();
  if (has_bias) DOT_CHECK(bias.numel() == d.oc) << "Conv2d bias size";

  // Observability hooks; both collapse to one relaxed load when disabled.
  // FLOPs: the lowered GEMM's 2 * OC * CKK multiply-adds per output pixel.
  obs::OpTimer op_timer(obs::OpKind::kConv2d,
                        2.0 * static_cast<double>(d.oc) *
                            static_cast<double>(d.ckk()) *
                            static_cast<double>(d.n * d.ohw()));
  obs::TraceSpan span("conv2d");

  int64_t cols = d.n * d.ohw();
  Tensor out = Tensor::Empty({d.n, d.oc, d.oh, d.ow});
  {
    // Scratch contents start uninitialized; BatchIm2Col writes every
    // column element and Gemm(accumulate=false) fully overwrites tmp.
    storage::Scratch col(d.ckk() * cols);
    storage::Scratch tmp(d.oc * cols);
    BatchIm2Col(x.data(), d, col.data());
    // One GEMM for the whole batch: [OC, CKK] x [CKK, B*OHW].
    internal::Gemm(w.data(), col.data(), tmp.data(), d.oc, d.ckk(), cols,
                   false);
    // Scatter [OC, B*OHW] -> [B, OC, OHW], fusing the bias. Each
    // (sample, out-channel) row is written by exactly one task.
    const float* bias_ptr = has_bias ? bias.data() : nullptr;
    float* out_ptr = out.data();
    const float* tmp_ptr = tmp.data();
    ParallelFor(
        ThreadPool::Global(), d.n * d.oc,
        [&](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            int64_t b = i / d.oc, oc = i % d.oc;
            const float* src = tmp_ptr + oc * cols + b * d.ohw();
            float* dst = out_ptr + i * d.ohw();
            float bv = bias_ptr ? bias_ptr[oc] : 0.0f;
            for (int64_t j = 0; j < d.ohw(); ++j) dst[j] = src[j] + bv;
          }
        },
        ChunkFor(d.ohw()));
  }

  std::vector<Tensor> inputs = {x, w};
  if (has_bias) inputs.push_back(bias);
  Tensor x_cap = x, w_cap = w, b_cap = bias;
  AttachNode(&out, "conv2d", inputs,
             [x_cap, w_cap, b_cap, d, has_bias, cols](const Tensor& o) {
               Tensor x = x_cap, w = w_cap, b = b_cap;
               const float* gout = o.grad_vec().data();
               bool need_x = NeedsGrad(x);
               bool need_w = NeedsGrad(w);
               bool need_b = has_bias && NeedsGrad(b);

               // Gather dOut into [OC, B*OHW] once (disjoint row segments
               // per task, deterministic for any partitioning). Every
               // scratch element is written by the copy below.
               storage::Scratch gall(d.oc * cols);
               float* gall_ptr = gall.data();
               ParallelFor(
                   ThreadPool::Global(), d.n * d.oc,
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       int64_t bb = i / d.oc, oc = i % d.oc;
                       const float* src = gout + i * d.ohw();
                       float* dst = gall_ptr + oc * cols + bb * d.ohw();
                       std::copy(src, src + d.ohw(), dst);
                     }
                   },
                   ChunkFor(d.ohw()));
               if (need_b) {
                 float* gb = b.grad();
                 for (int64_t oc = 0; oc < d.oc; ++oc) {
                   const float* row = gall.data() + oc * cols;
                   float acc = 0;
                   for (int64_t i = 0; i < cols; ++i) acc += row[i];
                   gb[oc] += acc;
                 }
               }
               if (need_w) {
                 storage::Scratch col(d.ckk() * cols);
                 BatchIm2Col(x.data(), d, col.data());
                 // dW += dOut_all * col^T : one GEMM over the long k = B*OHW.
                 internal::GemmTB(gall.data(), col.data(), w.grad(), d.oc, cols,
                                  d.ckk(), true);
               }
               if (need_x) {
                 storage::Scratch gcol(d.ckk() * cols);
                 // dcol = W^T * dOut_all : [CKK, OC] x [OC, B*OHW].
                 internal::GemmTA(w.data(), gall.data(), gcol.data(), d.ckk(),
                                  d.oc, cols, false);
                 BatchCol2Im(gcol.data(), d, x.grad());
               }
             });
  return out;
}

Tensor AvgPool2d(const Tensor& x) {
  DOT_CHECK(x.dim() == 4) << "AvgPool2d needs NCHW";
  int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  DOT_CHECK(h % 2 == 0 && w % 2 == 0) << "AvgPool2d requires even H and W";
  int64_t oh = h / 2, ow = w / 2;
  Tensor out = Tensor::Empty({n, c, oh, ow});
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t nc = 0; nc < n * c; ++nc) {
    const float* in = xp + nc * h * w;
    float* o = op + nc * oh * ow;
    for (int64_t i = 0; i < oh; ++i) {
      for (int64_t j = 0; j < ow; ++j) {
        const float* p = in + (2 * i) * w + 2 * j;
        o[i * ow + j] = 0.25f * (p[0] + p[1] + p[w] + p[w + 1]);
      }
    }
  }
  Tensor x_cap = x;
  AttachNode(&out, "avg_pool2d", {x}, [x_cap, n, c, h, w, oh, ow](const Tensor& o) {
    Tensor x = x_cap;
    float* gx = x.grad();
    const float* gout = o.grad_vec().data();
    for (int64_t nc = 0; nc < n * c; ++nc) {
      float* gi = gx + nc * h * w;
      const float* go = gout + nc * oh * ow;
      for (int64_t i = 0; i < oh; ++i) {
        for (int64_t j = 0; j < ow; ++j) {
          float g = 0.25f * go[i * ow + j];
          float* p = gi + (2 * i) * w + 2 * j;
          p[0] += g;
          p[1] += g;
          p[w] += g;
          p[w + 1] += g;
        }
      }
    }
  });
  return out;
}

Tensor UpsampleNearest2x(const Tensor& x) {
  DOT_CHECK(x.dim() == 4) << "UpsampleNearest2x needs NCHW";
  int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  int64_t oh = 2 * h, ow = 2 * w;
  Tensor out = Tensor::Empty({n, c, oh, ow});
  const float* xp = x.data();
  float* op = out.data();
  for (int64_t nc = 0; nc < n * c; ++nc) {
    const float* in = xp + nc * h * w;
    float* o = op + nc * oh * ow;
    for (int64_t i = 0; i < oh; ++i) {
      const float* irow = in + (i / 2) * w;
      float* orow = o + i * ow;
      for (int64_t j = 0; j < ow; ++j) orow[j] = irow[j / 2];
    }
  }
  Tensor x_cap = x;
  AttachNode(&out, "upsample2x", {x}, [x_cap, n, c, h, w, oh, ow](const Tensor& o) {
    Tensor x = x_cap;
    float* gx = x.grad();
    const float* gout = o.grad_vec().data();
    for (int64_t nc = 0; nc < n * c; ++nc) {
      float* gi = gx + nc * h * w;
      const float* go = gout + nc * oh * ow;
      for (int64_t i = 0; i < oh; ++i) {
        float* irow = gi + (i / 2) * w;
        const float* orow = go + i * ow;
        for (int64_t j = 0; j < ow; ++j) irow[j / 2] += orow[j];
      }
    }
  });
  return out;
}

}  // namespace dot
