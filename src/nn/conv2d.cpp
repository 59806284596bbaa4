#include "nn/conv2d.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/thread_pool.hpp"

namespace adv::nn {

void im2col(const float* img, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride,
            std::size_t padding, float* col) {
  const std::size_t out_h = (height + 2 * padding - kernel) / stride + 1;
  const std::size_t out_w = (width + 2 * padding - kernel) / stride + 1;
  const std::size_t plane = out_h * out_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* src = img + c * height * width;
    for (std::size_t ki = 0; ki < kernel; ++ki) {
      for (std::size_t kj = 0; kj < kernel; ++kj, ++row) {
        float* dst = col + row * plane;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          // ih = oh*stride + ki - padding, as signed arithmetic.
          const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * stride) +
                                    static_cast<std::ptrdiff_t>(ki) -
                                    static_cast<std::ptrdiff_t>(padding);
          float* drow = dst + oh * out_w;
          if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(height)) {
            std::memset(drow, 0, out_w * sizeof(float));
            continue;
          }
          const float* srow = src + static_cast<std::size_t>(ih) * width;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const std::ptrdiff_t iw =
                static_cast<std::ptrdiff_t>(ow * stride) +
                static_cast<std::ptrdiff_t>(kj) -
                static_cast<std::ptrdiff_t>(padding);
            drow[ow] = (iw < 0 || iw >= static_cast<std::ptrdiff_t>(width))
                           ? 0.0f
                           : srow[static_cast<std::size_t>(iw)];
          }
        }
      }
    }
  }
}

void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride,
            std::size_t padding, float* img) {
  const std::size_t out_h = (height + 2 * padding - kernel) / stride + 1;
  const std::size_t out_w = (width + 2 * padding - kernel) / stride + 1;
  const std::size_t plane = out_h * out_w;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    float* dst = img + c * height * width;
    for (std::size_t ki = 0; ki < kernel; ++ki) {
      for (std::size_t kj = 0; kj < kernel; ++kj, ++row) {
        const float* src = col + row * plane;
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          const std::ptrdiff_t ih = static_cast<std::ptrdiff_t>(oh * stride) +
                                    static_cast<std::ptrdiff_t>(ki) -
                                    static_cast<std::ptrdiff_t>(padding);
          if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(height)) continue;
          const float* srow = src + oh * out_w;
          float* drow = dst + static_cast<std::size_t>(ih) * width;
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const std::ptrdiff_t iw =
                static_cast<std::ptrdiff_t>(ow * stride) +
                static_cast<std::ptrdiff_t>(kj) -
                static_cast<std::ptrdiff_t>(padding);
            if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(width)) continue;
            drow[static_cast<std::size_t>(iw)] += srow[ow];
          }
        }
      }
    }
  }
}

Conv2d::Conv2d(const Conv2dConfig& cfg, Rng& rng)
    : cfg_(cfg),
      weight_({cfg.out_channels, cfg.in_channels * cfg.kernel * cfg.kernel}),
      bias_({cfg.out_channels}) {
  if (cfg.kernel == 0 || cfg.stride == 0) {
    throw std::invalid_argument("Conv2d: kernel and stride must be > 0");
  }
  if (cfg.in_channels == 0 || cfg.out_channels == 0) {
    throw std::invalid_argument("Conv2d: channel counts must be > 0");
  }
  direct_ok_ = conv::direct_supported(cfg.in_channels, cfg.out_channels,
                                      cfg.kernel, cfg.stride, cfg.padding);
  obs_key_ = "conv/c" + std::to_string(cfg.in_channels) + "o" +
             std::to_string(cfg.out_channels) + "k" +
             std::to_string(cfg.kernel) + "s" + std::to_string(cfg.stride) +
             "p" + std::to_string(cfg.padding);
  // Glorot with receptive-field fan counts (Keras convention).
  const std::size_t fan_in = cfg.in_channels * cfg.kernel * cfg.kernel;
  const std::size_t fan_out = cfg.out_channels * cfg.kernel * cfg.kernel;
  glorot_uniform(weight_, fan_in, fan_out, rng);
}

std::size_t Conv2d::output_dim(std::size_t in_dim) const {
  if (in_dim + 2 * cfg_.padding < cfg_.kernel) {
    throw std::invalid_argument(
        "Conv2d: kernel " + std::to_string(cfg_.kernel) +
        " exceeds padded input extent " +
        std::to_string(in_dim + 2 * cfg_.padding) + " (in_dim " +
        std::to_string(in_dim) + ", padding " +
        std::to_string(cfg_.padding) + ")");
  }
  return (in_dim + 2 * cfg_.padding - cfg_.kernel) / cfg_.stride + 1;
}

obs::Timer* Conv2d::observe_path(bool direct, bool forward) const {
  if (!obs::enabled()) return nullptr;
  auto& reg = obs::MetricsRegistry::global();
  if (forward) {
    static obs::Counter& hits = reg.counter("conv/direct_hits");
    static obs::Counter& fallbacks = reg.counter("conv/im2col_fallback");
    (direct ? hits : fallbacks).add(1);
  }
  std::atomic<obs::Timer*>& slot =
      timers_[(forward ? 0 : 2) + (direct ? 0 : 1)];
  obs::Timer* timer = slot.load(std::memory_order_acquire);
  if (!timer) {
    // Racing resolvers get the same registry entry; either store wins.
    const std::string suffix =
        std::string(direct ? "/direct" : "/im2col") + (forward ? "" : "_bwd");
    timer = &reg.timer(obs_key_ + suffix);
    slot.store(timer, std::memory_order_release);
  }
  return timer;
}

Tensor Conv2d::forward_impl(const Tensor& input, Mode /*mode*/,
                            TapeEntry* saved) const {
  return forward_fused(input, conv::Epilogue::None, saved);
}

Tensor Conv2d::forward_fused(const Tensor& input, conv::Epilogue epi,
                             TapeEntry* saved) const {
  if (input.rank() != 4 || input.dim(1) != cfg_.in_channels) {
    throw std::invalid_argument("Conv2d::forward: expected [N, " +
                                std::to_string(cfg_.in_channels) +
                                ", H, W], got " + input.shape_string());
  }
  if (saved) saved->tensor = input;
  const std::size_t h = input.dim(2), w = input.dim(3);
  if (h + 2 * cfg_.padding < cfg_.kernel || w + 2 * cfg_.padding < cfg_.kernel) {
    throw std::invalid_argument("Conv2d::forward: input smaller than kernel");
  }
  const std::size_t n = input.dim(0);
  Tensor out({n, cfg_.out_channels, output_dim(h), output_dim(w)});
  const bool direct = uses_direct();
  obs::ScopedTimer timer(observe_path(direct, /*forward=*/true));
  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();
  if (direct) {
    forward_direct(input, out, h, w, epi, pool);
  } else {
    forward_im2col(input, out, h, w, epi, pool);
  }
  return out;
}

void Conv2d::forward_direct(const Tensor& input, Tensor& out, std::size_t h,
                            std::size_t w, conv::Epilogue epi,
                            ThreadPool& pool) const {
  const std::size_t n = input.dim(0);
  const std::size_t k2 = cfg_.in_channels * cfg_.kernel * cfg_.kernel;
  const std::size_t plane = out.dim(2) * out.dim(3);
  // Weights are repacked per call (training mutates them; the pack is one
  // small copy). All chunks read the pack shared; the per-chunk padded
  // sample copy replaces the k^2-times-larger im2col matrix. Scratch is
  // allocated before the parallel region, one buffer per chunk.
  Tensor wpack({conv::packed_fwd_size(cfg_.out_channels, k2)});
  conv::pack_weights_fwd(weight_.data(), cfg_.out_channels, k2, wpack.data());
  const std::size_t padsz =
      conv::padded_size(cfg_.in_channels, h, w, cfg_.padding);
  std::vector<Tensor> pads;
  pads.reserve(pool.max_chunks());
  for (std::size_t c = 0; c < pool.max_chunks(); ++c) {
    pads.push_back(Tensor({padsz}));
  }
  pool.parallel_for_indexed(0, n, [&](std::size_t chunk, std::size_t b0,
                                      std::size_t b1) {
    float* xpad = pads[chunk].data();
    for (std::size_t s = b0; s < b1; ++s) {
      conv::pad_image(input.data() + s * cfg_.in_channels * h * w,
                      cfg_.in_channels, h, w, cfg_.padding, xpad);
      conv::direct_forward(xpad, wpack.data(), bias_.data(),
                           cfg_.in_channels, h, w, cfg_.kernel, cfg_.padding,
                           cfg_.out_channels, epi,
                           out.data() + s * cfg_.out_channels * plane);
    }
  });
}

void Conv2d::forward_im2col(const Tensor& input, Tensor& out, std::size_t h,
                            std::size_t w, conv::Epilogue epi,
                            ThreadPool& pool) const {
  const std::size_t n = input.dim(0);
  const std::size_t k2 = cfg_.in_channels * cfg_.kernel * cfg_.kernel;
  const std::size_t plane = out.dim(2) * out.dim(3);
  // Column scratch is allocated per chunk before the parallel region.
  std::vector<Tensor> cols;
  cols.reserve(pool.max_chunks());
  for (std::size_t c = 0; c < pool.max_chunks(); ++c) {
    cols.push_back(Tensor({k2, plane}));
  }
  pool.parallel_for_indexed(0, n, [&](std::size_t chunk, std::size_t b0,
                                      std::size_t b1) {
    float* col = cols[chunk].data();
    for (std::size_t s = b0; s < b1; ++s) {
      im2col(input.data() + s * cfg_.in_channels * h * w, cfg_.in_channels,
             h, w, cfg_.kernel, cfg_.stride, cfg_.padding, col);
      float* dst = out.data() + s * cfg_.out_channels * plane;
      gemm_raw(weight_.data(), col, dst, cfg_.out_channels, k2, plane,
               {.accumulate = false});
      for (std::size_t oc = 0; oc < cfg_.out_channels; ++oc) {
        const float b = bias_[oc];
        float* p = dst + oc * plane;
        for (std::size_t i = 0; i < plane; ++i) p[i] += b;
      }
      // Fused-activation post-pass: bitwise equal to the standalone
      // activation layer (same scalar expressions), so fusion does not
      // depend on which conv path a shape selected.
      if (epi == conv::Epilogue::ReLU) {
        for (std::size_t i = 0, m = cfg_.out_channels * plane; i < m; ++i) {
          dst[i] = dst[i] > 0.0f ? dst[i] : 0.0f;
        }
      } else if (epi == conv::Epilogue::Sigmoid) {
        for (std::size_t i = 0, m = cfg_.out_channels * plane; i < m; ++i) {
          dst[i] = 1.0f / (1.0f + std::exp(-dst[i]));
        }
      }
    }
  });
}

Tensor Conv2d::backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                             GradSlots grads) const {
  const Tensor& input = saved.tensor;
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = output_dim(h), ow = output_dim(w);
  if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
      grad_output.dim(1) != cfg_.out_channels || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow) {
    throw std::invalid_argument("Conv2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  const std::size_t k2 = cfg_.in_channels * cfg_.kernel * cfg_.kernel;
  const std::size_t plane = oh * ow;
  const bool direct = uses_direct();
  obs::ScopedTimer timer(observe_path(direct, /*forward=*/false));
  // col2im accumulates into the zero-filled input gradient; the direct
  // kernel overwrites it.
  Tensor grad_input(input.shape());

  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();
  if (!grads.empty()) {
    // Parameter gradients accumulate straight into the caller's slots, one
    // sample after another in sample order, so their float summation
    // order depends on nothing but the batch. The column buffer is rebuilt
    // per sample (cheaper than caching it for wide AEs); weight gradients
    // stay on im2col+GEMM, whose pixel-major strip reduction the direct
    // layout cannot reproduce cheaply.
    float* gw = grads[0]->data();
    float* gb = grads[1]->data();
    Tensor col({k2, plane});
    for (std::size_t s = 0; s < n; ++s) {
      const float* gout = grad_output.data() + s * cfg_.out_channels * plane;
      for (std::size_t oc = 0; oc < cfg_.out_channels; ++oc) {
        const float* p = gout + oc * plane;
        double acc = 0.0;
        for (std::size_t i = 0; i < plane; ++i) acc += p[i];
        gb[oc] += static_cast<float>(acc);
      }
      // dW += gout [out_c, plane] * col^T [plane, k2] (B stored [k2, plane]).
      im2col(input.data() + s * cfg_.in_channels * h * w, cfg_.in_channels, h,
             w, cfg_.kernel, cfg_.stride, cfg_.padding, col.data());
      gemm_a_bt_raw(gout, col.data(), gw, cfg_.out_channels, plane, k2,
                    {.accumulate = true});
    }
  }

  // The input gradient runs in parallel over samples, with scratch per
  // chunk allocated before the parallel region: dcol on the im2col path,
  // or the much smaller padded output-gradient copy on the direct path;
  // both are fully overwritten before use.
  const std::size_t bpad = cfg_.kernel - 1 - cfg_.padding;  // direct only
  const std::size_t gpsz =
      direct ? conv::padded_size(cfg_.out_channels, oh, ow, bpad) : 0;
  std::vector<Tensor> scratch;
  scratch.reserve(pool.max_chunks());
  for (std::size_t c = 0; c < pool.max_chunks(); ++c) {
    scratch.push_back(direct ? Tensor({gpsz}) : Tensor({k2, plane}));
  }
  Tensor wpackb;
  if (direct) {
    wpackb = Tensor({conv::packed_bwd_size(
        cfg_.in_channels, cfg_.out_channels, cfg_.kernel)});
    conv::pack_weights_bwd(weight_.data(), cfg_.in_channels,
                           cfg_.out_channels, cfg_.kernel, wpackb.data());
  }
  pool.parallel_for_indexed(0, n, [&](std::size_t chunk, std::size_t b0,
                                      std::size_t b1) {
    float* buf = scratch[chunk].data();
    for (std::size_t s = b0; s < b1; ++s) {
      const float* gout = grad_output.data() + s * cfg_.out_channels * plane;
      float* gi = grad_input.data() + s * cfg_.in_channels * h * w;
      if (direct) {
        conv::pad_image(gout, cfg_.out_channels, oh, ow, bpad, buf);
        conv::direct_input_grad(buf, wpackb.data(), cfg_.in_channels, h, w,
                                cfg_.kernel, cfg_.padding,
                                cfg_.out_channels, gi);
      } else {
        // dcol = W^T [k2, out_c] * gout [out_c, plane] (A stored [out_c, k2])
        gemm_at_b_raw(weight_.data(), gout, buf, k2, cfg_.out_channels, plane,
                      {.accumulate = false});
        col2im(buf, cfg_.in_channels, h, w, cfg_.kernel, cfg_.stride,
               cfg_.padding, gi);
      }
    }
  });
  return grad_input;
}

}  // namespace adv::nn
