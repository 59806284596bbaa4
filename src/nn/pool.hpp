// Spatial pooling layers (NCHW). Window == stride (non-overlapping), which
// is all the paper's architectures use (2x2 pools).
//
// Tape entries: AvgPool2d and Upsample2d save their input shape;
// MaxPool2d saves its input, and its backward recomputes each window's
// argmax. A MaxPool2d right after a ReLU records nothing when the
// Sequential peephole pairs them: the pair's backward reads the ReLU's
// entry (backward_through_relu).
#pragma once

#include "nn/layer.hpp"

namespace adv::nn {

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::size_t window = 2) : window_(window) {}
  std::string name() const override { return "AvgPool2d"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;

  std::size_t window_;
};

/// Each output is its window's first strict maximum in (di, dj) order; a
/// NaN never wins, and a window nothing beats (all NaN or -inf) pools to
/// -inf and routes its gradient to its first element.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window = 2) : window_(window) {}
  std::string name() const override { return "MaxPool2d"; }

  /// d(loss)/d(ReLU input) for a ReLU followed by this pool, in one pass
  /// over the ReLU's tape entry (its input, or the output of a conv that
  /// fused it): bitwise this pool's backward followed by the ReLU's. The
  /// Sequential peephole calls it; the pool's forward then records nothing.
  Tensor backward_through_relu(const Tensor& grad_output,
                               const TapeEntry& relu_saved) const;

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;
  // The backward over the pool's input x, or over the entry x of the ReLU
  // before it (tensor/max_pool.hpp).
  Tensor pool_backward(const Tensor& grad_output, const Tensor& x,
                       bool after_relu) const;

  std::size_t window_;
};

/// Nearest-neighbour upsampling by an integer factor (MagNet decoders).
class Upsample2d final : public Layer {
 public:
  explicit Upsample2d(std::size_t factor = 2) : factor_(factor) {}
  std::string name() const override { return "Upsample2d"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;

  std::size_t factor_;
};

}  // namespace adv::nn
