#include "nn/pool.hpp"

#include <limits>
#include <stdexcept>

#include "tensor/max_pool.hpp"

namespace adv::nn {
namespace {

void require_poolable(const Tensor& input, std::size_t window,
                      const char* who) {
  if (input.rank() != 4) {
    throw std::invalid_argument(std::string(who) + ": expected NCHW, got " +
                                input.shape_string());
  }
  if (window == 0 || input.dim(2) % window != 0 ||
      input.dim(3) % window != 0) {
    throw std::invalid_argument(std::string(who) + ": window " +
                                std::to_string(window) +
                                " must divide spatial dims of " +
                                input.shape_string());
  }
}

}  // namespace

Tensor AvgPool2d::forward_impl(const Tensor& input, Mode /*mode*/,
                               TapeEntry* saved) const {
  require_poolable(input, window_, "AvgPool2d");
  if (saved) saved->shape = input.shape();
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  Tensor out({n, c, oh, ow});
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = input.data() + nc * h * w;
    float* dst = out.data() + nc * oh * ow;
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        float acc = 0.0f;
        for (std::size_t di = 0; di < window_; ++di) {
          const float* row = src + (i * window_ + di) * w + j * window_;
          for (std::size_t dj = 0; dj < window_; ++dj) acc += row[dj];
        }
        dst[i * ow + j] = acc * inv;
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward_impl(const Tensor& grad_output,
                                const TapeEntry& saved,
                                GradSlots /*grads*/) const {
  const std::size_t n = saved.shape[0], c = saved.shape[1];
  const std::size_t h = saved.shape[2], w = saved.shape[3];
  const std::size_t oh = h / window_, ow = w / window_;
  if (grad_output.shape() != Shape{n, c, oh, ow}) {
    throw std::invalid_argument("AvgPool2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  Tensor grad(saved.shape);
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = grad_output.data() + nc * oh * ow;
    float* dst = grad.data() + nc * h * w;
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const float g = src[i * ow + j] * inv;
        for (std::size_t di = 0; di < window_; ++di) {
          float* row = dst + (i * window_ + di) * w + j * window_;
          for (std::size_t dj = 0; dj < window_; ++dj) row[dj] += g;
        }
      }
    }
  }
  return grad;
}

Tensor MaxPool2d::forward_impl(const Tensor& input, Mode /*mode*/,
                               TapeEntry* saved) const {
  require_poolable(input, window_, "MaxPool2d");
  if (saved) saved->tensor = input;
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor out({n, c, oh, ow});
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = input.data() + nc * h * w;
    float* dst = out.data() + nc * oh * ow;
    if (window_ == 2) {
      // The paper's 2x2 pools: one select chain over the four candidates
      // in (di, dj) order, as the general loop below runs it.
      for (std::size_t i = 0; i < oh; ++i) {
        const float* a = src + 2 * i * w;
        const float* b = a + w;
        float* d = dst + i * ow;
        for (std::size_t j = 0; j < ow; ++j) {  // ci:vectorized
          const float a0 = a[2 * j], a1 = a[2 * j + 1];
          const float b0 = b[2 * j], b1 = b[2 * j + 1];
          float m = a0 > ninf ? a0 : ninf;
          m = a1 > m ? a1 : m;
          m = b0 > m ? b0 : m;
          d[j] = b1 > m ? b1 : m;
        }
      }
      continue;
    }
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const float* win = src + i * window_ * w + j * window_;
        float m = ninf;
        for (std::size_t di = 0; di < window_; ++di) {
          for (std::size_t dj = 0; dj < window_; ++dj) {
            const float v = win[di * w + dj];
            m = v > m ? v : m;
          }
        }
        dst[i * ow + j] = m;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward_impl(const Tensor& grad_output,
                                const TapeEntry& saved,
                                GradSlots /*grads*/) const {
  return pool_backward(grad_output, saved.tensor, /*after_relu=*/false);
}

Tensor MaxPool2d::backward_through_relu(const Tensor& grad_output,
                                        const TapeEntry& relu_saved) const {
  return pool_backward(grad_output, relu_saved.tensor, /*after_relu=*/true);
}

Tensor MaxPool2d::pool_backward(const Tensor& grad_output, const Tensor& x,
                                bool after_relu) const {
  require_poolable(x, window_, "MaxPool2d::backward");
  if (grad_output.shape() != Shape{x.dim(0), x.dim(1), x.dim(2) / window_,
                                   x.dim(3) / window_}) {
    throw std::invalid_argument("MaxPool2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  Tensor grad(x.shape());
  max_pool_backward(x.data(), grad_output.data(), x.dim(0) * x.dim(1),
                    x.dim(2), x.dim(3), window_, after_relu, grad.data());
  return grad;
}

Tensor Upsample2d::forward_impl(const Tensor& input, Mode /*mode*/,
                                TapeEntry* saved) const {
  if (input.rank() != 4) {
    throw std::invalid_argument("Upsample2d: expected NCHW, got " +
                                input.shape_string());
  }
  if (saved) saved->shape = input.shape();
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h * factor_, ow = w * factor_;
  Tensor out({n, c, oh, ow});
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = input.data() + nc * h * w;
    float* dst = out.data() + nc * oh * ow;
    for (std::size_t i = 0; i < oh; ++i) {
      const float* srow = src + (i / factor_) * w;
      float* drow = dst + i * ow;
      for (std::size_t j = 0; j < ow; ++j) drow[j] = srow[j / factor_];
    }
  }
  return out;
}

Tensor Upsample2d::backward_impl(const Tensor& grad_output,
                                 const TapeEntry& saved,
                                 GradSlots /*grads*/) const {
  const std::size_t n = saved.shape[0], c = saved.shape[1];
  const std::size_t h = saved.shape[2], w = saved.shape[3];
  const std::size_t oh = h * factor_, ow = w * factor_;
  if (grad_output.shape() != Shape{n, c, oh, ow}) {
    throw std::invalid_argument("Upsample2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  Tensor grad(saved.shape);
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = grad_output.data() + nc * oh * ow;
    float* dst = grad.data() + nc * h * w;
    for (std::size_t i = 0; i < oh; ++i) {
      const float* srow = src + i * ow;
      float* drow = dst + (i / factor_) * w;
      for (std::size_t j = 0; j < ow; ++j) drow[j / factor_] += srow[j];
    }
  }
  return grad;
}

}  // namespace adv::nn
