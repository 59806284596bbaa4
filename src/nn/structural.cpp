#include "nn/structural.hpp"

#include <stdexcept>

#include "tensor/tensor_ops.hpp"

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

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

Tensor Dropout::forward_impl(const Tensor& input, Mode mode,
                             TapeEntry* saved) const {
  if (saved) saved->tensor = Tensor();
  if (!is_training(mode) || rate_ == 0.0f) return input;
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  Tensor mask(input.shape());
  Tensor out = input;
  float* m = mask.data();
  float* o = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    const bool keep_unit = rng_.bernoulli(keep);
    m[i] = keep_unit ? scale : 0.0f;
    o[i] *= m[i];
  }
  if (saved) saved->tensor = std::move(mask);
  return out;
}

Tensor Dropout::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                              GradSlots /*grads*/) const {
  if (saved.tensor.empty()) return grad_output;
  Tensor grad = grad_output;
  mul_inplace(grad, saved.tensor);
  return grad;
}

}  // namespace adv::nn
