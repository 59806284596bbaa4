#include "nn/activations.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
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

/// `pick ? a : b` as an integer-mask blend. A float select whose arm
/// computes (`x < 0 ? x * slope : x`) still branches even when the arm is
/// computed into a named float first: GCC sinks the multiply back into
/// the arm, and under its default -ftrapping-math will not speculate it
/// out again. The mask blend uses both operands unconditionally, so the
/// loop vectorizes; it returns the chosen operand's bits, NaN and ±0
/// included (DESIGN.md §6).
float blend(bool pick, float a, float b) {
  const std::uint32_t mask = 0u - static_cast<std::uint32_t>(pick);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & mask) |
                              (std::bit_cast<std::uint32_t>(b) & ~mask));
}

}  // namespace

Tensor ReLU::forward_impl(const Tensor& input, Mode /*mode*/, TapeEntry* saved,
                          Workspace* ws) const {
  if (saved) saved->tensor = input;
  Tensor out = make_buffer(ws, input.shape());
  const float* x = input.data();
  float* o = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    o[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return out;
}

Tensor ReLU::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                           GradSlots /*grads*/, Workspace* ws) const {
  require_same_shape(saved.tensor, grad_output, "ReLU");
  Tensor grad = make_buffer(ws, grad_output.shape());
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

Tensor LeakyReLU::forward_impl(const Tensor& input, Mode /*mode*/,
                               TapeEntry* saved, Workspace* ws) const {
  if (saved) saved->tensor = input;
  Tensor out = make_buffer(ws, input.shape());
  const float* x = input.data();
  float* o = out.data();
  const float slope = negative_slope_;
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {  // ci:vectorized
    const float xi = x[i];
    o[i] = blend(xi < 0.0f, xi * slope, xi);
  }
  return out;
}

Tensor LeakyReLU::backward_impl(const Tensor& grad_output,
                                const TapeEntry& saved, GradSlots /*grads*/,
                                Workspace* ws) const {
  require_same_shape(saved.tensor, grad_output, "LeakyReLU");
  Tensor grad = make_buffer(ws, grad_output.shape());
  const float* x = saved.tensor.data();
  const float* gin = grad_output.data();
  float* g = grad.data();
  const float slope = negative_slope_;
  for (std::size_t i = 0, n = grad.numel(); i < n; ++i) {  // ci:vectorized
    const float gi = gin[i];
    g[i] = blend(x[i] < 0.0f, gi * slope, gi);
  }
  return grad;
}

Tensor Sigmoid::forward_impl(const Tensor& input, Mode /*mode*/,
                             TapeEntry* saved, Workspace* ws) const {
  Tensor out = make_buffer(ws, input.shape());
  const float* x = input.data();
  float* o = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    o[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
  // The entry is a copy of the *output* (sigmoid' = y(1-y)): the buffer
  // itself travels on and may be recycled by the workspace.
  if (saved) saved->tensor = out;
  return out;
}

Tensor Sigmoid::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                              GradSlots /*grads*/, Workspace* ws) const {
  require_same_shape(saved.tensor, grad_output, "Sigmoid");
  Tensor grad = make_buffer(ws, grad_output.shape());
  const float* y = saved.tensor.data();
  const float* gin = grad_output.data();
  float* g = grad.data();
  for (std::size_t i = 0, n = grad.numel(); i < n; ++i) {
    g[i] = gin[i] * y[i] * (1.0f - y[i]);
  }
  return grad;
}

Tensor Tanh::forward_impl(const Tensor& input, Mode /*mode*/, TapeEntry* saved,
                          Workspace* ws) const {
  Tensor out = make_buffer(ws, input.shape());
  const float* x = input.data();
  float* o = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    o[i] = std::tanh(x[i]);
  }
  if (saved) saved->tensor = out;
  return out;
}

Tensor Tanh::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                           GradSlots /*grads*/, Workspace* ws) const {
  require_same_shape(saved.tensor, grad_output, "Tanh");
  Tensor grad = make_buffer(ws, grad_output.shape());
  const float* y = saved.tensor.data();
  const float* gin = grad_output.data();
  float* g = grad.data();
  for (std::size_t i = 0, n = grad.numel(); i < n; ++i) {
    g[i] = gin[i] * (1.0f - y[i] * y[i]);
  }
  return grad;
}

}  // namespace adv::nn
