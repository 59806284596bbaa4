// Layer: the building block of every model in this library.
//
// Models here are strictly sequential (as are all networks in the paper),
// so layers expose a plain forward/backward pair. Propagating gradients all
// the way back to the input is what lets the attack implementations (C&W,
// EAD, FGSM, DeepFool) compute d(loss)/d(image).
//
// Call contract: a layer holds only parameters and configuration; what a
// call produces lives in caller-owned objects (nn/tape.hpp), and a call
// advances no layer state, so concurrent passes over one layer are safe.
//   * forward(x, mode, saved) records what backward needs into `saved`
//     when non-null (an Eval pass); with none, no backward may follow.
//   * backward(g, saved, grads) treats `saved` as READ-ONLY: it may be
//     called any number of times after one recording forward (DeepFool
//     seeds one backward per class). Parameter gradients accumulate into
//     `grads` when non-empty; otherwise that work is skipped.
//   * Each call allocates its output and scratch as fresh zero-filled
//     tensors that it owns; nothing is shared between calls.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/mode.hpp"
#include "nn/tape.hpp"
#include "tensor/tensor.hpp"

namespace adv::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for `input` (leading dimension = batch).
  /// Every row is computed independently of the others.
  Tensor forward(const Tensor& input, Mode mode,
                 TapeEntry* saved = nullptr) const {
    return forward_impl(input, mode, saved);
  }

  /// Given d(loss)/d(output) and the entry a recording forward filled,
  /// returns d(loss)/d(input).
  Tensor backward(const Tensor& grad_output, const TapeEntry& saved,
                  GradSlots grads = {}) const {
    return backward_impl(grad_output, saved, grads);
  }

  /// Learnable parameters (empty for stateless layers). Pointers remain
  /// valid for the life of the layer.
  virtual std::vector<Tensor*> parameters() { return {}; }

  /// Read-only view of the same parameters, aligned with the mutable
  /// overload. Lets const callers (parameter counting, serialization)
  /// avoid const_cast.
  virtual std::vector<const Tensor*> parameters() const { return {}; }

  virtual std::string name() const = 0;

 protected:
  // What each layer kind implements (the public pair supplies defaults).
  virtual Tensor forward_impl(const Tensor& input, Mode mode,
                              TapeEntry* saved) const = 0;
  virtual Tensor backward_impl(const Tensor& grad_output,
                               const TapeEntry& saved,
                               GradSlots grads) const = 0;
};

}  // namespace adv::nn
