#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace adv::nn {

Optimizer::Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads,
                     float lr)
    : params_(std::move(params)), grads_(std::move(grads)), lr_(lr) {
  if (params_.size() != grads_.size()) {
    throw std::invalid_argument("Optimizer: params/grads size mismatch");
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i]->same_shape(*grads_[i])) {
      throw std::invalid_argument("Optimizer: param/grad shape mismatch at " +
                                  std::to_string(i));
    }
  }
}

void Optimizer::zero_grad() {
  for (Tensor* g : grads_) g->fill(0.0f);
}

Adam::Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads, float lr,
           float beta1, float beta2, float eps)
    : Optimizer(std::move(params), std::move(grads), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor* p : params_) {
    m_.emplace_back(p->shape());
    v_.emplace_back(p->shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float alpha = lr_ * std::sqrt(bc2) / bc1;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    float* p = params_[i]->data();
    const float* g = grads_[i]->data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (std::size_t j = 0, n = params_[i]->numel(); j < n; ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      p[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps_);
    }
  }
}

}  // namespace adv::nn
