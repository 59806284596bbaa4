// Sequential: an ordered stack of layers with whole-model forward,
// backward (including gradient w.r.t. the input) and weight serialization.
//
// Each model owns a Workspace (an arena of reusable buffers, see
// tensor/workspace.hpp) that is shared with its layers: intermediate
// activations/gradients are released back to the arena as soon as the
// next layer has consumed them, so steady-state passes over a fixed batch
// shape allocate nothing. set_workspace_enabled(false) restores the
// allocate-per-pass profile (the benchmark baseline); outputs are bitwise
// identical either way.
#pragma once

#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "nn/layer.hpp"
#include "obs/metrics.hpp"
#include "tensor/conv_micro.hpp"

namespace adv::nn {

class Conv2d;
class ReLU;
class Sigmoid;

class Sequential {
 public:
  Sequential() : ws_(std::make_unique<Workspace>()) {}

  // Move-only: layers hold caches and parameter storage.
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Constructs a layer in place and returns a reference to it.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  /// Moves every layer of `tail` (with its parameters and state) onto the
  /// end of this model, leaving `tail` empty. Used to compose models,
  /// e.g. a gray-box attack target classifier(reformer(x)). Moved layers
  /// are re-pointed at this model's workspace on the next pass.
  void append(Sequential&& tail) {
    for (auto& layer : tail.layers_) layers_.push_back(std::move(layer));
    tail.layers_.clear();
  }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Forward pass over all layers. Train/Eval populate backward caches
  /// (attacks differentiate in eval mode); Infer skips them — see the
  /// caching contract in layer.hpp.
  Tensor forward(const Tensor& input, Mode mode = Mode::Eval);

  /// Backpropagates d(loss)/d(output) through every layer, accumulating
  /// parameter gradients, and returns d(loss)/d(input). May be called
  /// repeatedly after one caching forward (layer caches are read-only
  /// during backward).
  Tensor backward(const Tensor& grad_output);

  std::vector<Tensor*> parameters();
  std::vector<const Tensor*> parameters() const;
  std::vector<Tensor*> gradients();
  void zero_grad();
  std::size_t parameter_count() const;

  /// This model's buffer arena (always present; shared with the layers).
  Workspace& workspace() { return *ws_; }
  const Workspace& workspace() const { return *ws_; }

  /// Toggles buffer recycling for this model (on by default). Off, every
  /// pass allocates fresh tensors — the A/B baseline for benchmarks.
  void set_workspace_enabled(bool on) { ws_->set_enabled(on); }

  /// Toggles the Conv->ReLU/Sigmoid peephole (on by default): detected
  /// pairs run as one Conv2d::forward_fused call with the activation
  /// applied in the conv store epilogue, and the activation layer adopts
  /// the fused output as its backward cache. Off restores one forward
  /// call per layer — the A/B baseline; outputs and gradients are
  /// bitwise identical either way.
  void set_fusion_enabled(bool on) { fusion_enabled_ = on; }

  /// Saves all parameter tensors in layer order.
  void save(const std::filesystem::path& path) const;

  /// Loads parameters saved by save(). Throws std::runtime_error if the
  /// file's tensor count or any shape disagrees with this architecture.
  void load(const std::filesystem::path& path);

 private:
  // Global-registry timer handles for "layer/<i>:<name>/forward|backward",
  // resolved lazily on the first instrumented pass and rebuilt when the
  // layer count changes (emplace/add/append). Identical architectures
  // share keys, so per-layer metrics aggregate across model instances.
  struct LayerTimers {
    obs::Timer* forward;
    obs::Timer* backward;
  };
  void sync_obs_timers();
  // Re-points every layer at ws_ when the layer list changed since the
  // last pass (same size-based trigger as the timers).
  void sync_workspace();
  // Fusion plan entry for layer i: when epi != None, layer i is a Conv2d
  // whose successor is the recorded ReLU/Sigmoid and the forward loop
  // executes both as one fused step (skipping the activation layer).
  struct FuseStep {
    conv::Epilogue epi = conv::Epilogue::None;
    Conv2d* conv = nullptr;
    ReLU* relu = nullptr;
    Sigmoid* sigmoid = nullptr;
  };
  // Rebuilds the fusion plan when the layer list changed since the last
  // pass (same size-based trigger as the timers/workspace syncs).
  void sync_fusion();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<LayerTimers> obs_timers_;
  std::vector<FuseStep> fuse_;
  // unique_ptr keeps the arena's address stable across Sequential moves
  // (layers hold a raw pointer to it).
  std::unique_ptr<Workspace> ws_;
  std::size_t ws_synced_layers_ = 0;
  std::size_t fuse_synced_layers_ = 0;
  bool fusion_enabled_ = true;
};

}  // namespace adv::nn
