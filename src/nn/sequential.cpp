#include "nn/sequential.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/pool.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace adv::nn {

Sequential::Sequential() { layers_changed(); }

void Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  layers_changed();
}

void Sequential::append(Sequential&& tail) {
  for (auto& layer : tail.layers_) layers_.push_back(std::move(layer));
  tail.layers_.clear();
  layers_changed();
  tail.layers_changed();
}

void Sequential::layers_changed() {
  fuse_.assign(layers_.size(), conv::Epilogue::None);
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    if (!dynamic_cast<const Conv2d*>(layers_[i].get())) continue;
    const Layer* next = layers_[i + 1].get();
    if (dynamic_cast<const ReLU*>(next)) {
      fuse_[i] = conv::Epilogue::ReLU;
    } else if (dynamic_cast<const Sigmoid*>(next)) {
      fuse_[i] = conv::Epilogue::Sigmoid;
    }
  }
  relu_pool_.assign(layers_.size(), false);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    relu_pool_[i] = dynamic_cast<const MaxPool2d*>(layers_[i].get()) &&
                    dynamic_cast<const ReLU*>(layers_[i - 1].get());
  }
  obs_ = std::make_unique<ObsTimers>();
}

const Sequential::LayerTimers* Sequential::obs_timers() const {
  if (!obs::enabled()) return nullptr;
  std::call_once(obs_->once, [this] {
    auto& reg = obs::MetricsRegistry::global();
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      const std::string stem =
          "layer/" + std::to_string(i) + ":" + layers_[i]->name();
      obs_->timers.push_back(
          {&reg.timer(stem + "/forward"), &reg.timer(stem + "/backward")});
    }
  });
  return obs_->timers.data();
}

namespace {

// Block b of a pass split into `blocks` covers rows
// [b * n / blocks, (b + 1) * n / blocks).
std::size_t block_row(std::size_t b, std::size_t n, std::size_t blocks) {
  return b * n / blocks;
}

}  // namespace

Tensor Sequential::forward(const Tensor& input, Mode mode, Tape* tape) const {
  if (mode == Mode::Infer) tape = nullptr;  // records nothing
  if (layers_.empty()) return input;
  const LayerTimers* timers = obs_timers();
  if (timers) {
    static obs::Counter& calls =
        obs::MetricsRegistry::global().counter("model/forward_calls");
    calls.add(1);
  }
  // Rows are independent, so a pass runs as row blocks, one per pool
  // chunk; max_chunks() is 1 inside a pool task, where the pass stays
  // whole.
  ThreadPool& pool = ThreadPool::global();
  const std::size_t n = input.rank() == 0 ? 0 : input.dim(0);
  const std::size_t blocks = std::min(n, pool.max_chunks());
  if (blocks <= 1) {
    if (tape) tape->blocks.clear();
    return forward_rows(input, mode, tape, timers);
  }
  if (tape) {
    tape->entries.clear();
    tape->blocks.resize(blocks);
  }
  std::vector<Tensor> outs(blocks);
  pool.parallel_for(0, blocks, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const Tensor rows = input.slice_rows(block_row(b, n, blocks),
                                           block_row(b + 1, n, blocks));
      outs[b] = forward_rows(rows, mode, tape ? &tape->blocks[b] : nullptr,
                             timers);
    }
  });
  return stack_rows(outs);
}

Tensor Sequential::forward_rows(const Tensor& input, Mode mode, Tape* tape,
                                const LayerTimers* timers) const {
  if (tape) tape->entries.resize(layers_.size());
  const auto entry = [tape](std::size_t i) {
    return tape ? &tape->entries[i] : nullptr;
  };
  // Fused Conv->activation steps consume two layers per iteration: the
  // conv applies the activation in its store epilogue and the pass writes
  // (a copy of) the result as the activation's tape entry. The
  // activation's own timer stays silent; the conv's covers the fused op.
  // A MaxPool2d paired with the ReLU before it records nothing: backward
  // reads the ReLU's entry.
  Tensor x;
  bool have_x = false;
  for (std::size_t i = 0; i < layers_.size();) {
    const Tensor& in = have_x ? x : input;
    const conv::Epilogue epi =
        fusion_enabled_ ? fuse_[i] : conv::Epilogue::None;
    const bool fused = epi != conv::Epilogue::None;
    {
      obs::ScopedTimer t(timers ? timers[i].forward : nullptr);
      x = fused ? static_cast<const Conv2d&>(*layers_[i])
                      .forward_fused(in, epi, entry(i))
                : layers_[i]->forward(
                      in, mode,
                      fusion_enabled_ && relu_pool_[i] ? nullptr : entry(i));
    }
    if (fused && tape) tape->entries[i + 1].tensor = x;
    have_x = true;
    i += fused ? 2 : 1;
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output, const Tape& tape,
                            GradSlots grads) const {
  if (layers_.empty()) return grad_output;
  const auto recorded_here = [this](const Tape& t) {
    return t.entries.size() == layers_.size();
  };
  if (!(tape.blocks.empty()
            ? recorded_here(tape)
            : std::all_of(tape.blocks.begin(), tape.blocks.end(),
                          recorded_here)) ||
      (!grads.empty() && grads.size() != parameters().size())) {
    throw std::invalid_argument(
        "Sequential::backward: tape or gradients do not match this model");
  }
  const LayerTimers* timers = obs_timers();
  if (timers) {
    // One backward call == one gradient query: the attack metrics derive
    // their gradient-query counts from this counter's deltas.
    static obs::Counter& calls =
        obs::MetricsRegistry::global().counter("model/backward_calls");
    calls.add(1);
  }
  if (tape.blocks.empty()) {
    return backward_rows(grad_output, tape, grads, timers);
  }
  // A split tape: each block pulls its own rows back. Weight gradients
  // accumulate into shared slots, so those walks run one block at a time,
  // in block order (their kernels still use the pool).
  const std::size_t blocks = tape.blocks.size();
  const std::size_t n = grad_output.dim(0);
  std::vector<Tensor> outs(blocks);
  const auto run = [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const Tensor rows = grad_output.slice_rows(block_row(b, n, blocks),
                                                 block_row(b + 1, n, blocks));
      outs[b] = backward_rows(rows, tape.blocks[b], grads, timers);
    }
  };
  if (grads.empty()) {
    ThreadPool::global().parallel_for(0, blocks, run);
  } else {
    run(0, blocks);
  }
  return stack_rows(outs);
}

Tensor Sequential::backward_rows(const Tensor& grad_output, const Tape& tape,
                                 GradSlots grads,
                                 const LayerTimers* timers) const {
  Tensor g;
  std::size_t slot_end = grads.size();  // slots are handed out back to front
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const std::size_t n =
        grads.empty() ? 0 : std::as_const(*layers_[i]).parameters().size();
    slot_end -= n;
    obs::ScopedTimer t(timers ? timers[i].backward : nullptr);
    const Tensor& up = i + 1 == layers_.size() ? grad_output : g;
    if (fusion_enabled_ && relu_pool_[i]) {
      // One pass for the pool and the ReLU below it (neither has
      // parameters); the pool's timer covers both.
      g = static_cast<const MaxPool2d&>(*layers_[i])
              .backward_through_relu(up, tape.entries[i - 1]);
      --i;
      continue;
    }
    g = layers_[i]->backward(up, tape.entries[i], grads.subspan(slot_end, n));
  }
  return g;
}

std::vector<Tensor*> Sequential::parameters() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<const Tensor*> Sequential::parameters() const {
  std::vector<const Tensor*> out;
  for (const auto& layer : layers_) {
    for (const Tensor* p : std::as_const(*layer).parameters()) {
      out.push_back(p);
    }
  }
  return out;
}

std::size_t Sequential::parameter_count() const {
  std::size_t n = 0;
  for (const Tensor* p : parameters()) n += p->numel();
  return n;
}

void Sequential::save(const std::filesystem::path& path) const {
  std::vector<Tensor> params;
  for (const Tensor* p : parameters()) params.push_back(*p);
  save_tensors(path, params);
}

void Sequential::load(const std::filesystem::path& path) {
  const std::vector<Tensor> stored = load_tensors(path);
  std::vector<Tensor*> params = parameters();
  if (stored.size() != params.size()) {
    throw std::runtime_error(
        "Sequential::load: " + path.string() + " holds " +
        std::to_string(stored.size()) + " tensors, architecture expects " +
        std::to_string(params.size()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!stored[i].same_shape(*params[i])) {
      throw std::runtime_error("Sequential::load: tensor " +
                               std::to_string(i) + " shape " +
                               stored[i].shape_string() + " != expected " +
                               params[i]->shape_string());
    }
    *params[i] = stored[i];
  }
}

}  // namespace adv::nn
