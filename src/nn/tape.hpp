// The per-call state of a forward/backward pair, owned by the caller (see
// nn/layer.hpp). Reusing a tape across passes reuses its storage.
#pragma once

#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace adv::nn {

/// What one layer saved during a recording forward: a tensor or a shape
/// covers every layer kind (each documents what it fills). An entry may
/// stay empty: a MaxPool2d paired with the ReLU before it records
/// nothing, its backward reading the ReLU's entry (nn/sequential.hpp).
struct TapeEntry {
  Tensor tensor;
  Shape shape;
};

/// One entry per layer of the model whose forward recorded it; or, when
/// that forward ran as row blocks (see nn/sequential.hpp), one sub-tape
/// per block, in row order, and no entries.
struct Tape {
  std::vector<TapeEntry> entries;
  std::vector<Tape> blocks;
};

/// Gradient slots aligned with parameters(); empty: input gradient only.
using GradSlots = std::span<Tensor* const>;

/// Zeroed gradients aligned with a model's (or layer's) parameters().
class GradientSet {
 public:
  template <typename Model>
  explicit GradientSet(const Model& model) {
    for (const Tensor* p : model.parameters()) grads_.emplace_back(p->shape());
  }

  /// What backward and the optimizers take.
  std::vector<Tensor*> pointers() {
    std::vector<Tensor*> out;
    for (Tensor& g : grads_) out.push_back(&g);
    return out;
  }
  std::size_t size() const { return grads_.size(); }
  Tensor& operator[](std::size_t i) { return grads_.at(i); }
  void zero() {
    for (Tensor& g : grads_) g.fill(0.0f);
  }

 private:
  std::vector<Tensor> grads_;
};

}  // namespace adv::nn
