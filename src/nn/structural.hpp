// Structural layers: Flatten (NCHW -> [N, C*H*W]).
#pragma once

#include "nn/layer.hpp"

namespace adv::nn {

/// Tape entry: the input shape.
class Flatten final : public Layer {
 public:
  std::string name() const override { return "Flatten"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;
};

}  // namespace adv::nn
