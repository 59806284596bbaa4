#include "nn/structural.hpp"

#include <stdexcept>

namespace adv::nn {

Tensor Flatten::forward_impl(const Tensor& input, Mode /*mode*/,
                             TapeEntry* saved) const {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten: expected rank >= 2, got " +
                                input.shape_string());
  }
  if (saved) saved->shape = input.shape();
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.numel() / n});
}

Tensor Flatten::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                              GradSlots /*grads*/) const {
  if (grad_output.numel() != saved.shape.numel()) {
    throw std::invalid_argument("Flatten::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  return grad_output.reshaped(saved.shape);
}

}  // namespace adv::nn
