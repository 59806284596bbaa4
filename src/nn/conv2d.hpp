// 2-D convolution (NCHW) with two interchangeable kernels:
//
//   * a direct-convolution path for the small stride-1 shapes that
//     dominate the MagNet models (3x3 "same" convs), streaming taps out
//     of a zero-padded sample copy through the register-tiled microkernel
//     in tensor/conv_micro.hpp — no im2col matrix is materialized, and a
//     following ReLU/Sigmoid can be fused into the store epilogue
//     (forward_fused, driven by the Sequential peephole);
//   * the original im2col + GEMM path for everything else (strided,
//     oversized shapes), and as the forced A/B baseline.
//
// The path is chosen per shape at construction (uses_direct()) and both
// produce bitwise-identical outputs and gradients — the direct kernels
// replicate the GEMM's per-element accumulation order (see conv_micro.hpp
// and DESIGN.md section 16). The split is observable via adv::obs:
// per-shape "conv/<shape>/{direct,im2col}[_bwd]" timers and global
// "conv/direct_hits" / "conv/im2col_fallback" counters.
//
// Forward and the input gradient parallelize over batch samples (each
// sample is independent). Parameter gradients, when requested, accumulate
// straight into the caller's slots in sample order, on the calling
// thread: no sum ever runs per pool chunk, so outputs and gradients are
// bitwise the same at any pool size. (A training step already runs each
// row block's backward on a pool chunk of its own; see nn/trainer.hpp.)
#pragma once

#include <atomic>
#include <string>

#include "nn/layer.hpp"
#include "obs/metrics.hpp"
#include "tensor/conv_micro.hpp"
#include "tensor/rng.hpp"

namespace adv {
class ThreadPool;
}  // namespace adv

namespace adv::nn {

struct Conv2dConfig {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;  // symmetric zero padding; kernel/2 gives "same"
};

class Conv2d final : public Layer {
 public:
  /// Throws std::invalid_argument for degenerate configs (zero channels,
  /// kernel or stride) instead of wrapping size_t arithmetic later.
  Conv2d(const Conv2dConfig& cfg, Rng& rng);

  /// Convenience for the common 3x3 "same" convolution used by MagNet.
  static Conv2dConfig same(std::size_t in_c, std::size_t out_c,
                           std::size_t kernel = 3) {
    return Conv2dConfig{in_c, out_c, kernel, 1, kernel / 2};
  }

  /// forward() with an activation fused into the conv epilogue, bitwise
  /// equal to running that activation layer on forward()'s output. The
  /// Sequential peephole calls this for Conv->ReLU/Sigmoid pairs and
  /// writes the activation's tape entry itself. Works on both paths (the
  /// im2col fallback applies the epilogue as a post-pass), so fusion never
  /// depends on path selection.
  Tensor forward_fused(const Tensor& input, conv::Epilogue epi,
                       TapeEntry* saved = nullptr) const;

  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<const Tensor*> parameters() const override {
    return {&weight_, &bias_};
  }
  std::string name() const override { return "Conv2d"; }

  const Conv2dConfig& config() const { return cfg_; }

  /// Output size along one spatial dim. Throws std::invalid_argument when
  /// the kernel exceeds the padded input (the subtraction would wrap).
  std::size_t output_dim(std::size_t in_dim) const;

  /// True when forward/backward run the direct kernels for this shape.
  bool uses_direct() const { return direct_ok_ && !force_im2col_; }

  /// Forces the im2col+GEMM path regardless of shape — the A/B baseline
  /// for identity tests and benchmarks.
  void set_force_im2col(bool force) { force_im2col_ = force; }

  /// Overrides the pool used by forward/backward (nullptr restores the
  /// global pool). Test seam: ADV_THREADS pins only the global pool, so
  /// thread-count identity tests pass dedicated pools instead, calling
  /// the layer directly: inside a pool task (e.g. one of Sequential's row
  /// blocks) every pool call runs inline.
  void set_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  // Tape entry: the input batch. Without `grads` ({dW, db}) backward
  // skips the weight-gradient work (column rebuild + GEMM per sample).
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;
  void forward_direct(const Tensor& input, Tensor& out, std::size_t h,
                      std::size_t w, conv::Epilogue epi,
                      ThreadPool& pool) const;
  void forward_im2col(const Tensor& input, Tensor& out, std::size_t h,
                      std::size_t w, conv::Epilogue epi,
                      ThreadPool& pool) const;
  // Resolves the per-shape path timer (nullptr when obs is off) and, on
  // forward, bumps the global path-split counters.
  obs::Timer* observe_path(bool direct, bool forward) const;

  Conv2dConfig cfg_;
  Tensor weight_;       // [out_c, in_c * k * k]
  Tensor bias_;         // [out_c]
  bool direct_ok_ = false;       // shape covered by the direct kernels
  bool force_im2col_ = false;    // A/B override
  ThreadPool* pool_ = nullptr;   // test seam; nullptr = global pool
  std::string obs_key_;          // "conv/c<in>o<out>k<k>s<s>p<p>"
  // Per-shape timers, resolved on the first instrumented pass (atomic:
  // passes may race to it). Index (forward ? 0 : 2) + (direct ? 0 : 1).
  mutable std::atomic<obs::Timer*> timers_[4] = {};
};

/// Unpacks one sample [C, H, W] (within a batch tensor) into a column
/// buffer col[C*k*k, out_h*out_w]. Exposed for tests.
void im2col(const float* img, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride,
            std::size_t padding, float* col);

/// Adjoint of im2col: accumulates col back into img (+=).
void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride,
            std::size_t padding, float* img);

}  // namespace adv::nn
