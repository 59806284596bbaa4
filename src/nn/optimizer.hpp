// First-order optimizers: Adam (the paper's training stack used Keras'
// Adam defaults) behind a small base class the trainer drives.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace adv::nn {

class Optimizer {
 public:
  /// `params` and `grads` must be aligned index-by-index and outlive the
  /// optimizer (params point into a Sequential's layers, grads into the
  /// caller's nn::GradientSet).
  Optimizer(std::vector<Tensor*> params, std::vector<Tensor*> grads, float lr);
  virtual ~Optimizer() = default;

  /// Applies one update using the currently accumulated gradients.
  virtual void step() = 0;

  void zero_grad();

  /// The gradients step() reads, in parameter order.
  const std::vector<Tensor*>& gradients() const { return grads_; }

  /// Learning rate, shared across optimizers so generic code (the
  /// Trainer's divergence backoff halves it) can adjust any of them.
  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

 protected:
  std::vector<Tensor*> params_;
  std::vector<Tensor*> grads_;
  float lr_;
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<Tensor*> params, std::vector<Tensor*> grads,
       float lr = 1e-3f, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f);
  void step() override;

 private:
  float beta1_, beta2_, eps_;
  std::vector<Tensor> m_, v_;
  long t_ = 0;
};

}  // namespace adv::nn
