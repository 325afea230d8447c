#include "tensor/optim.h"

#include <cmath>


namespace dot::optim {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.numel(), 0.0f);
    v_.emplace_back(p.numel(), 0.0f);
  }
}

void Adam::Step() {
  ++t_;
  float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!p.has_grad()) continue;  // parameter untouched this step
    const float* g = p.grad_vec().data();
    float* data = p.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      float mhat = m[j] / bc1;
      float vhat = v[j] / bc2;
      data[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

void Adam::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

SGD::SGD(std::vector<Tensor> params, float lr, float momentum)
    : params_(std::move(params)), lr_(lr), momentum_(momentum) {
  vel_.reserve(params_.size());
  for (const auto& p : params_) vel_.emplace_back(p.numel(), 0.0f);
}

void SGD::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!p.has_grad()) continue;
    const float* g = p.grad_vec().data();
    float* data = p.data();
    float* v = vel_[i].data();
    int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      v[j] = momentum_ * v[j] + g[j];
      data[j] -= lr_ * v[j];
    }
  }
}

void SGD::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

}  // namespace dot::optim
