#include "tensor/nn.h"

#include <cmath>

#include "obs/profile.h"
#include "util/checkpoint.h"

namespace dot::nn {

// ---- Module -------------------------------------------------------------------

Tensor Module::RegisterParameter(const std::string& name, Tensor t) {
  t.set_requires_grad(true);
  params_.emplace_back(name, t);
  return t;
}

void Module::RegisterModule(const std::string& name, Module* child) {
  children_.emplace_back(name, child);
}

void Module::CollectNamed(
    const std::string& prefix,
    std::vector<std::pair<std::string, Tensor>>* out) const {
  for (const auto& [name, t] : params_) out->emplace_back(prefix + name, t);
  for (const auto& [name, child] : children_) {
    child->CollectNamed(prefix + name + ".", out);
  }
}

std::vector<std::pair<std::string, Tensor>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Tensor>> out;
  CollectNamed("", &out);
  return out;
}

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> out;
  for (auto& [name, t] : NamedParameters()) {
    (void)name;
    out.push_back(t);
  }
  return out;
}

int64_t Module::NumParams() const {
  int64_t n = 0;
  for (const auto& t : Parameters()) n += t.numel();
  return n;
}

void Module::ZeroGrad() {
  for (auto& t : Parameters()) t.ZeroGrad();
}

Status Module::Save(BinaryWriter* w) const {
  auto named = NamedParameters();
  w->WriteU64(named.size());
  for (const auto& [name, t] : named) {
    w->WriteString(name);
    w->WriteI64Vector(t.shape());
    w->WriteF32Vector(t.ToVector());
  }
  if (!w->Ok()) return Status::IOError("model save failed");
  return Status::OK();
}

Status Module::Load(BinaryReader* r) {
  auto named = NamedParameters();
  uint64_t count = r->ReadU64();
  if (!r->Ok()) return Status::IOError("model load: cannot read header");
  if (count != named.size()) {
    return Status::InvalidArgument("model load: parameter count mismatch");
  }
  for (auto& [name, t] : named) {
    std::string fname = r->ReadString();
    std::vector<int64_t> shape = r->ReadI64Vector();
    std::vector<float> data = r->ReadF32Vector();
    if (!r->Ok()) return Status::IOError("model load: truncated file");
    if (fname != name) {
      return Status::InvalidArgument("model load: parameter name mismatch: " +
                                     fname + " vs " + name);
    }
    if (shape != t.shape() || static_cast<int64_t>(data.size()) != t.numel()) {
      return Status::InvalidArgument("model load: shape mismatch for " + name);
    }
    for (float v : data) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("model load: non-finite weight in " +
                                       name);
      }
    }
    t.CopyFrom(data);
  }
  return Status::OK();
}

namespace {
constexpr char kModuleMagic[] = "DOTMOD";
constexpr uint64_t kModuleVersion = 1;
}  // namespace

Status Module::SaveFile(const std::string& path) const {
  CheckpointWriter w(path, kModuleMagic, kModuleVersion);
  if (!w.Ok()) return Status::IOError("cannot open " + path);
  DOT_RETURN_NOT_OK(Save(w.writer()));
  return w.Commit();
}

Status Module::LoadFile(const std::string& path) {
  DOT_ASSIGN_OR_RETURN(CheckpointReader r,
                       CheckpointReader::Open(path, kModuleMagic, kModuleVersion));
  return Load(&r.reader());
}

// ---- Init ---------------------------------------------------------------------

Tensor KaimingUniform(std::vector<int64_t> shape, int64_t fan_in, Rng* rng) {
  float bound = std::sqrt(3.0f / static_cast<float>(std::max<int64_t>(1, fan_in)));
  return Tensor::Rand(std::move(shape), rng, -bound, bound);
}

// ---- Linear -------------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias)
    : in_(in_features), out_(out_features) {
  weight_ = RegisterParameter(
      "weight", KaimingUniform({in_features, out_features}, in_features, rng));
  if (bias) {
    bias_ = RegisterParameter("bias",
                              KaimingUniform({out_features}, in_features, rng));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  Tensor x2 = x;
  std::vector<int64_t> orig = x.shape();
  if (x.dim() != 2) x2 = Reshape(x, {-1, in_});
  Tensor y = MatMul(x2, weight_);
  if (bias_.defined()) y = Add(y, bias_);
  if (x.dim() != 2) {
    orig.back() = out_;
    y = Reshape(y, orig);
  }
  return y;
}

// ---- Conv2dLayer ----------------------------------------------------------------

Conv2dLayer::Conv2dLayer(int64_t in_channels, int64_t out_channels, int64_t kernel,
                         int64_t stride, int64_t padding, Rng* rng, bool bias)
    : stride_(stride), padding_(padding) {
  int64_t fan_in = in_channels * kernel * kernel;
  weight_ = RegisterParameter(
      "weight",
      KaimingUniform({out_channels, in_channels, kernel, kernel}, fan_in, rng));
  if (bias) {
    bias_ = RegisterParameter("bias", KaimingUniform({out_channels}, fan_in, rng));
  }
}

Tensor Conv2dLayer::Forward(const Tensor& x) const {
  return Conv2d(x, weight_, bias_, stride_, padding_);
}

// ---- Embedding ------------------------------------------------------------------

Embedding::Embedding(int64_t count, int64_t dim, Rng* rng) {
  Tensor t = Tensor::Randn({count, dim}, rng);
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] *= 0.02f;  // small-normal init
  table_ = RegisterParameter("table", t);
}

Tensor Embedding::Forward(const std::vector<int64_t>& ids) const {
  return Rows(table_, ids);
}

// ---- Norms ----------------------------------------------------------------------

LayerNorm::LayerNorm(int64_t dim) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({dim}));
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  return LayerNormOp(x, gamma_, beta_);
}

GroupNorm::GroupNorm(int64_t channels, int64_t groups) : groups_(groups) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({channels}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({channels}));
}

Tensor GroupNorm::Forward(const Tensor& x) const {
  return GroupNormOp(x, gamma_, beta_, groups_);
}

// ---- MultiheadAttention -----------------------------------------------------------

MultiheadAttention::MultiheadAttention(int64_t dim, int64_t heads, Rng* rng)
    : dim_(dim),
      heads_(heads),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng) {
  DOT_CHECK(dim % heads == 0) << "attention dim must divide heads";
  RegisterModule("wq", &wq_);
  RegisterModule("wk", &wk_);
  RegisterModule("wv", &wv_);
  RegisterModule("wo", &wo_);
}

Tensor MultiheadAttention::Forward(const Tensor& x,
                                   const std::vector<float>* key_bias) const {
  DOT_CHECK(x.dim() == 3) << "attention expects [B, L, d]";
  int64_t b = x.size(0), l = x.size(1);
  int64_t dh = dim_ / heads_;
  // FLOPs: four [B*L, d] x [d, d] projections plus the two [L, L] score /
  // context batched products per head. Inclusive of the GEMMs below (which
  // are also counted under kGemm — see obs/profile.h).
  obs::OpTimer op_timer(
      obs::OpKind::kAttention,
      2.0 * static_cast<double>(b * l) *
          (4.0 * static_cast<double>(dim_ * dim_) +
           2.0 * static_cast<double>(l * dim_)));
  auto split = [&](const Tensor& t) {
    // [B, L, d] -> [B*h, L, dh]
    Tensor r = Reshape(t, {b, l, heads_, dh});
    r = Permute(r, {0, 2, 1, 3});
    return Reshape(r, {b * heads_, l, dh});
  };
  Tensor q = split(wq_.Forward(x));
  Tensor k = split(wk_.Forward(x));
  Tensor v = split(wv_.Forward(x));
  Tensor kt = Permute(k, {0, 2, 1});  // [B*h, dh, L]
  // The raw score matrix is freshly materialized and exclusively owned, so
  // inference scales (and biases) it in place instead of allocating.
  Tensor scores = ScaleReuse(BatchMatMul(q, kt),
                             1.0f / std::sqrt(static_cast<float>(dh)));
  if (key_bias != nullptr) {
    DOT_CHECK(static_cast<int64_t>(key_bias->size()) == l)
        << "key_bias length must equal sequence length";
    Tensor bias = Tensor::FromVector({l}, *key_bias);
    scores = AddReuse(scores, bias);  // broadcast over rows and heads
  }
  Tensor att = Softmax(scores);          // [B*h, L, L]
  Tensor ctx = BatchMatMul(att, v);      // [B*h, L, dh]
  ctx = Reshape(ctx, {b, heads_, l, dh});
  ctx = Permute(ctx, {0, 2, 1, 3});
  ctx = Reshape(ctx, {b, l, dim_});
  return wo_.Forward(ctx);
}

// ---- GRUCell --------------------------------------------------------------------

GRUCell::GRUCell(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : hidden_(hidden_dim),
      xz_(input_dim, hidden_dim, rng),
      hz_(hidden_dim, hidden_dim, rng, /*bias=*/false),
      xr_(input_dim, hidden_dim, rng),
      hr_(hidden_dim, hidden_dim, rng, /*bias=*/false),
      xn_(input_dim, hidden_dim, rng),
      hn_(hidden_dim, hidden_dim, rng, /*bias=*/false) {
  RegisterModule("xz", &xz_);
  RegisterModule("hz", &hz_);
  RegisterModule("xr", &xr_);
  RegisterModule("hr", &hr_);
  RegisterModule("xn", &xn_);
  RegisterModule("hn", &hn_);
}

Tensor GRUCell::Forward(const Tensor& x, const Tensor& h) const {
  Tensor z = Sigmoid(Add(xz_.Forward(x), hz_.Forward(h)));
  Tensor r = Sigmoid(Add(xr_.Forward(x), hr_.Forward(h)));
  Tensor n = Tanh(Add(xn_.Forward(x), hn_.Forward(Mul(r, h))));
  // h' = (1 - z) * n + z * h
  Tensor one_minus_z = AddScalar(Neg(z), 1.0f);
  return Add(Mul(one_minus_z, n), Mul(z, h));
}

// ---- FeedForward -----------------------------------------------------------------

FeedForward::FeedForward(int64_t dim, int64_t hidden, Rng* rng)
    : fc1_(dim, hidden, rng), fc2_(hidden, dim, rng) {
  RegisterModule("fc1", &fc1_);
  RegisterModule("fc2", &fc2_);
}

Tensor FeedForward::Forward(const Tensor& x) const {
  return fc2_.Forward(Gelu(fc1_.Forward(x)));
}

// ---- SinusoidalEncoding ------------------------------------------------------------

Tensor SinusoidalEncoding(int64_t count, int64_t dim) {
  Tensor out = Tensor::Empty({count, dim});
  for (int64_t pos = 0; pos < count; ++pos) {
    for (int64_t i = 0; i < dim; ++i) {
      // Pairs (sin, cos) over geometric frequencies, as in Eq. 12.
      double freq = std::pow(10000.0, -static_cast<double>(2 * (i / 2)) /
                                          static_cast<double>(dim));
      double angle = static_cast<double>(pos) * freq;
      out.at(pos * dim + i) = static_cast<float>((i % 2 == 0) ? std::sin(angle)
                                                              : std::cos(angle));
    }
  }
  return out;
}

}  // namespace dot::nn
