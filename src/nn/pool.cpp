#include "nn/pool.hpp"

#include <limits>
#include <stdexcept>

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

// The running maximum of one MaxPool2d window and its offset in the
// channel plane, updated with selects instead of a data-dependent branch
// (see DESIGN.md §6). The strict > keeps the first maximum in (di, dj)
// order, and a NaN never wins. A window nothing beats (all NaN or -inf)
// yields -inf at the window's first element, so backward stays inside it.
struct WindowMax {
  explicit WindowMax(std::size_t first) : idx(first) {}
  void take(const float* src, std::size_t at) {
    const float v = src[at];
    const bool gt = v > value;
    value = gt ? v : value;
    idx += (at - idx) * gt;
  }
  float value = -std::numeric_limits<float>::infinity();
  std::size_t idx;
};

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
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  Tensor out({n, c, oh, ow});
  if (saved) {
    saved->shape = input.shape();
    saved->index.resize(out.numel());  // every slot is written below
  }
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = input.data() + nc * h * w;
    float* dst = out.data() + nc * oh * ow;
    std::size_t* amax = saved ? saved->index.data() + nc * oh * ow : nullptr;
    if (window_ == 2) {
      // The paper's 2x2 pools: the four candidates unrolled, about twice
      // as fast as the general loop below at window 2.
      for (std::size_t i = 0; i < oh; ++i) {
        for (std::size_t j = 0; j < ow; ++j) {
          const std::size_t first = 2 * i * w + 2 * j;
          WindowMax m(first);
          m.take(src, first);
          m.take(src, first + 1);
          m.take(src, first + w);
          m.take(src, first + w + 1);
          dst[i * ow + j] = m.value;
          if (amax) amax[i * ow + j] = nc * h * w + m.idx;
        }
      }
      continue;
    }
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const std::size_t first = i * window_ * w + j * window_;
        WindowMax m(first);
        for (std::size_t di = 0; di < window_; ++di) {
          for (std::size_t dj = 0; dj < window_; ++dj) {
            m.take(src, first + di * w + dj);
          }
        }
        dst[i * ow + j] = m.value;
        if (amax) amax[i * ow + j] = nc * h * w + m.idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward_impl(const Tensor& grad_output,
                                const TapeEntry& saved,
                                GradSlots /*grads*/) const {
  const std::vector<std::size_t>& argmax = saved.index;
  if (grad_output.numel() != argmax.size()) {
    throw std::invalid_argument("MaxPool2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  Tensor grad(saved.shape);
  const float* g = grad_output.data();
  float* dst = grad.data();
  for (std::size_t i = 0, m = argmax.size(); i < m; ++i) {
    dst[argmax[i]] += g[i];
  }
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
