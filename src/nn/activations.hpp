// Element-wise activation layers: ReLU, Sigmoid, Tanh (Tanh is in no
// model; test fixtures use it as a smooth activation).
//
// Tape entries: ReLU saves its input, Sigmoid/Tanh their
// output. A fused Conv->ReLU/Sigmoid step records the POST-activation
// tensor instead: Sigmoid's usual entry, and for ReLU y <= 0 exactly when
// x <= 0 (y == x on the open positive side, else +0.0), so the mask on y
// is bitwise the mask on x.
#pragma once

#include "nn/layer.hpp"

namespace adv::nn {

class ReLU final : public Layer {
 public:
  std::string name() const override { return "ReLU"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;
};

class Sigmoid final : public Layer {
 public:
  std::string name() const override { return "Sigmoid"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;
};

class Tanh final : public Layer {
 public:
  std::string name() const override { return "Tanh"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;
};

}  // namespace adv::nn
