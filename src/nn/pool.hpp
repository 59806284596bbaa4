// Spatial pooling layers (NCHW). Window == stride (non-overlapping), which
// is all the paper's architectures use (2x2 pools).
//
// Tape entries: every layer here saves its input shape; MaxPool2d also
// saves the flat input index of each output max.
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

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t window = 2) : window_(window) {}
  std::string name() const override { return "MaxPool2d"; }

 private:
  Tensor forward_impl(const Tensor& input, Mode mode,
                      TapeEntry* saved) const override;
  Tensor backward_impl(const Tensor& grad_output, const TapeEntry& saved,
                       GradSlots grads) const override;

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
