// Structural layers: Flatten (NCHW -> [N, C*H*W]) and Dropout.
#pragma once

#include "nn/layer.hpp"
#include "tensor/rng.hpp"

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

/// Inverted dropout: activations are scaled by 1/(1-rate) at train time so
/// eval needs no rescaling. Identity (and differentiable) in eval mode, so
/// attacks see the deterministic network. Tape entry: the train-mode
/// mask, empty after an eval-mode forward (backward is then the
/// identity). The mask RNG is the one layer state a forward advances
/// (Mode::Train only).
class Dropout final : public Layer {
 public:
  Dropout(float rate, std::uint64_t seed);
  std::string name() const override { return "Dropout"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;

  float rate_;
  mutable Rng rng_;
};

}  // namespace adv::nn
