// Element-wise activation layers: ReLU, LeakyReLU, Sigmoid, Tanh.
//
// Tape entries: ReLU/LeakyReLU save their input, Sigmoid/Tanh their
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

class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(float negative_slope = 0.01f)
      : negative_slope_(negative_slope) {}
  std::string name() const override { return "LeakyReLU"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;
  float negative_slope_;
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
