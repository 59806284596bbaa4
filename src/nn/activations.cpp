#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

namespace adv::nn {
namespace {

void require_same_shape(const Tensor& a, const Tensor& b, const char* who) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(who) +
                                "::backward: grad shape " + b.shape_string() +
                                " does not match forward input " +
                                a.shape_string());
  }
}

}  // namespace

Tensor ReLU::forward_impl(const Tensor& input, Mode /*mode*/,
                          TapeEntry* saved) const {
  if (saved) saved->tensor = input;
  Tensor out(input.shape());
  const float* x = input.data();
  float* o = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    o[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                           GradSlots /*grads*/) const {
  require_same_shape(saved.tensor, grad_output, "ReLU");
  Tensor grad(grad_output.shape());
  const float* x = saved.tensor.data();
  const float* gin = grad_output.data();
  float* g = grad.data();
  // gin[i] is loaded unconditionally so the loop selects, not branches
  // (see DESIGN.md §6); a NaN x passes gin through.
  for (std::size_t i = 0, n = grad.numel(); i < n; ++i) {  // ci:vectorized
    const float gi = gin[i];
    g[i] = x[i] <= 0.0f ? 0.0f : gi;
  }
  return grad;
}

Tensor Sigmoid::forward_impl(const Tensor& input, Mode /*mode*/,
                             TapeEntry* saved) const {
  Tensor out(input.shape());
  const float* x = input.data();
  float* o = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    o[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
  // The entry is a copy of the *output* (sigmoid' = y(1-y)): the buffer
  // itself travels on as the next layer's input.
  if (saved) saved->tensor = out;
  return out;
}

Tensor Sigmoid::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                              GradSlots /*grads*/) const {
  require_same_shape(saved.tensor, grad_output, "Sigmoid");
  Tensor grad(grad_output.shape());
  const float* y = saved.tensor.data();
  const float* gin = grad_output.data();
  float* g = grad.data();
  for (std::size_t i = 0, n = grad.numel(); i < n; ++i) {
    g[i] = gin[i] * y[i] * (1.0f - y[i]);
  }
  return grad;
}

Tensor Tanh::forward_impl(const Tensor& input, Mode /*mode*/,
                          TapeEntry* saved) const {
  Tensor out(input.shape());
  const float* x = input.data();
  float* o = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    o[i] = std::tanh(x[i]);
  }
  if (saved) saved->tensor = out;
  return out;
}

Tensor Tanh::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                           GradSlots /*grads*/) const {
  require_same_shape(saved.tensor, grad_output, "Tanh");
  Tensor grad(grad_output.shape());
  const float* y = saved.tensor.data();
  const float* gin = grad_output.data();
  float* g = grad.data();
  for (std::size_t i = 0, n = grad.numel(); i < n; ++i) {
    g[i] = gin[i] * (1.0f - y[i] * y[i]);
  }
  return grad;
}

}  // namespace adv::nn
