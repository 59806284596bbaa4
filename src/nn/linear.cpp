#include "nn/linear.hpp"

#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace adv::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_({in_features, out_features}),
      bias_({out_features}) {
  glorot_uniform(weight_, in_features, out_features, rng);
}

Tensor Linear::forward_impl(const Tensor& input, Mode /*mode*/,
                            TapeEntry* saved) const {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Linear::forward: expected [N, " +
                                std::to_string(in_) + "], got " +
                                input.shape_string());
  }
  if (saved) saved->tensor = input;
  // gemm's prepare_c keeps an already-correctly-shaped c, so this buffer
  // is used in place and fully overwritten.
  Tensor out({input.dim(0), out_});
  gemm(input, weight_, out);
  const std::size_t n = out.dim(0);
  float* o = out.data();
  const float* b = bias_.data();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < out_; ++c) o[r * out_ + c] += b[c];
  }
  return out;
}

Tensor Linear::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                             GradSlots grads) const {
  const Tensor& input = saved.tensor;
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_ ||
      grad_output.dim(0) != input.dim(0)) {
    throw std::invalid_argument("Linear::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  if (!grads.empty()) {
    // dW += x^T * dy, accumulated straight into the gradient buffer.
    gemm_at_b(input, grad_output, *grads[0], {.accumulate = true});
    // db += column sums of dy
    const std::size_t n = grad_output.dim(0);
    const float* g = grad_output.data();
    float* db = grads[1]->data();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < out_; ++c) db[c] += g[r * out_ + c];
    }
  }
  // dx = dy * W^T
  Tensor dx(input.shape());
  gemm_a_bt(grad_output, weight_, dx);
  return dx;
}

}  // namespace adv::nn
