// Sequential: an ordered stack of layers with whole-model forward,
// backward (including gradient w.r.t. the input) and weight serialization.
//
// Forward and backward are const and take no lock: the only state a pass
// touches is the caller's Tape (see nn/layer.hpp), and every layer call
// allocates its own outputs, so concurrent passes may share one model.
//
// Peepholes: a Conv2d followed by a ReLU or Sigmoid runs as one conv
// with the activation in its store epilogue, and a ReLU followed by a
// MaxPool2d runs its backward as one pass over the ReLU's tape entry (the
// pool records nothing). Both are bitwise invisible (set_fusion_enabled).
//
// Row blocks: every layer computes each row independently of the others,
// so a pass over N >= 2 rows, called outside a pool task while the
// global ThreadPool has T > 1 threads, is cut into B = min(T, N)
// contiguous row blocks [b*N/B, (b+1)*N/B). Each block runs the whole
// layer stack on one pool chunk (its kernels inline, see
// tensor/thread_pool.hpp) and records into its own sub-tape
// (Tape::blocks); the outputs are stacked back in row order, bitwise
// what a row-by-row pass computes. Training does not use this split: a
// training step cuts each batch into a fixed partition of its own that
// does not depend on T and runs each block's passes inside one pool task,
// where they stay whole (nn/trainer.hpp).
#pragma once

#include <filesystem>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/layer.hpp"
#include "obs/metrics.hpp"
#include "tensor/conv_micro.hpp"

namespace adv::nn {

class Sequential {
 public:
  Sequential();

  // Move-only: layers hold parameter storage.
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Constructs a layer in place and returns a reference to it.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  void add(std::unique_ptr<Layer> layer);

  /// Moves every layer of `tail` (with its parameters) onto the end of
  /// this model, leaving `tail` empty. Used to compose models, e.g. a
  /// gray-box attack target classifier(reformer(x)).
  void append(Sequential&& tail);

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Forward pass over all layers. An Eval pass records one entry
  /// per layer into `tape` when given (or, when split into row blocks, one
  /// sub-tape per block), so backward() may follow; an Infer pass records
  /// nothing and leaves `tape` as it was. Counts one model/forward_calls
  /// per call, split or not.
  Tensor forward(const Tensor& input, Mode mode = Mode::Eval,
                 Tape* tape = nullptr) const;

  /// Backpropagates d(loss)/d(output) through the layers using `tape`
  /// (read-only, so one recording forward may seed many backwards) and
  /// returns d(loss)/d(input). Parameter gradients accumulate into
  /// `grads` (aligned with parameters()) when non-empty. Over a split
  /// tape, the blocks' input gradients run in parallel; with `grads`, the
  /// blocks run one after another, in block order, into the same slots
  /// (deterministic, but a different float summation order than one
  /// unsplit pass).
  Tensor backward(const Tensor& grad_output, const Tape& tape,
                  GradSlots grads = {}) const;

  std::vector<Tensor*> parameters();
  std::vector<const Tensor*> parameters() const;
  std::size_t parameter_count() const;

  /// Toggles the peepholes (on by default). A Conv->ReLU/Sigmoid pair
  /// runs as one Conv2d::forward_fused call with the activation applied
  /// in the conv store epilogue, and the pass writes the activation's
  /// tape entry from the fused output. A ReLU->MaxPool2d pair runs its
  /// backward as one MaxPool2d::backward_through_relu call over the
  /// ReLU's entry, and the pool records nothing. Off restores one forward
  /// and one backward call per layer — the A/B baseline; outputs and
  /// gradients are bitwise identical either way.
  void set_fusion_enabled(bool on) { fusion_enabled_ = on; }

  /// Saves all parameter tensors in layer order.
  void save(const std::filesystem::path& path) const;

  /// Loads parameters saved by save(). Throws std::runtime_error if the
  /// file's tensor count or any shape disagrees with this architecture.
  void load(const std::filesystem::path& path);

 private:
  // Global-registry timer handles for "layer/<i>:<name>/forward|backward".
  // Identical architectures share keys, so per-layer metrics aggregate
  // across model instances.
  struct LayerTimers {
    obs::Timer* forward;
    obs::Timer* backward;
  };
  // Resolved once, on the first instrumented pass (nothing registers while
  // obs is off; racing first passes are safe).
  struct ObsTimers {
    std::once_flag once;
    std::vector<LayerTimers> timers;
  };
  const LayerTimers* obs_timers() const;  // null while obs is off
  // One unsplit pass over `input`'s rows (forward records into
  // tape->entries; backward reads them).
  Tensor forward_rows(const Tensor& input, Mode mode, Tape* tape,
                      const LayerTimers* timers) const;
  Tensor backward_rows(const Tensor& grad_output, const Tape& tape,
                       GradSlots grads, const LayerTimers* timers) const;
  // Rebuilds the fusion plan and the timer table; the layer list never
  // changes during a pass.
  void layers_changed();

  std::vector<std::unique_ptr<Layer>> layers_;
  // Fusion plan: fuse_[i] != None when layer i is a Conv2d whose
  // successor is the ReLU/Sigmoid the epilogue applies.
  std::vector<conv::Epilogue> fuse_;
  // relu_pool_[i]: layer i is a MaxPool2d right after a ReLU.
  std::vector<bool> relu_pool_;
  std::unique_ptr<ObsTimers> obs_;
  bool fusion_enabled_ = true;
};

}  // namespace adv::nn
