// Fully connected layer: y = x W + b, with x [N, in], W [in, out], b [out].
#pragma once

#include "nn/layer.hpp"
#include "tensor/rng.hpp"

namespace adv::nn {

class Linear final : public Layer {
 public:
  /// Initializes W with Glorot-uniform and b with zeros (Keras defaults,
  /// matching the training stack the paper used).
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<const Tensor*> parameters() const override {
    return {&weight_, &bias_};
  }
  std::string name() const override { return "Linear"; }

 private:
  // Tape entry: the input batch. Backward's `grads`, when non-empty, is
  // {dW [in, out], db [out]}.
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;

  std::size_t in_;
  std::size_t out_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]
};

}  // namespace adv::nn
