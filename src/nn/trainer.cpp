#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::nn {
namespace {

std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  // Fisher-Yates with our deterministic RNG.
  for (std::size_t i = n; i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.uniform_index(i)]);
  }
  return idx;
}

// Guards one fit loop against divergence. Keeps a rolling snapshot of the
// last-good weights; on a non-finite loss or gradient the caller skips the
// step and this restores the snapshot and halves the learning rate.
// Optimizer moments (Adam m/v) are deliberately left alone: they are
// finite (the poisoned gradient never reached step()) and re-converge
// within a few batches.
class DivergenceGuard {
 public:
  DivergenceGuard(Sequential& model, Optimizer& opt, TrainStats& stats)
      : model_(model), opt_(opt), stats_(stats) {
    refresh_snapshot();
  }

  /// True when every accumulated gradient is finite.
  bool gradients_finite() {
    for (Tensor* g : opt_.gradients()) {
      for (float v : g->values()) {
        if (!std::isfinite(v)) return false;
      }
    }
    return true;
  }

  /// Skip-batch path: restore last-good weights, halve the LR, record.
  void on_divergence(const char* what, std::size_t epoch, std::size_t batch) {
    ++stats_.skipped_batches;
    ++stats_.lr_backoffs;
    ++stats_.snapshot_restores;
    opt_.set_lr(opt_.lr() * 0.5f);
    std::vector<Tensor*> params = model_.parameters();
    for (std::size_t i = 0; i < params.size(); ++i) *params[i] = snapshot_[i];
    // Rare and serious enough to always count (not gated on obs::enabled).
    obs::MetricsRegistry::global().counter("fault/train_diverged").add(1);
    std::fprintf(stderr,
                 "[trainer] warning: %s at epoch %zu batch %zu; skipped "
                 "batch, restored last-good weights, lr -> %g\n",
                 what, epoch + 1, batch,
                 static_cast<double>(opt_.lr()));
  }

  /// Called after each epoch whose batches were all finite.
  void refresh_snapshot() {
    snapshot_.clear();
    for (Tensor* p : model_.parameters()) snapshot_.push_back(*p);
  }

 private:
  Sequential& model_;
  Optimizer& opt_;
  TrainStats& stats_;
  std::vector<Tensor> snapshot_;
};

// The "trainer.loss" failpoint lets CI inject a NaN loss without touching
// the math; check() is one relaxed atomic load when ADV_FAULT is unset.
float maybe_poison(float loss_value) {
  if (fault::check("trainer.loss") == fault::Action::Nan) {
    return std::numeric_limits<float>::quiet_NaN();
  }
  return loss_value;
}

Tensor gather_rows(const Tensor& images, const std::vector<std::size_t>& idx,
                   std::size_t begin, std::size_t end) {
  const std::size_t row = images.numel() / images.dim(0);
  std::vector<std::size_t> dims = images.shape().dims();
  dims[0] = end - begin;
  Tensor out{Shape(dims)};
  for (std::size_t i = begin; i < end; ++i) {
    std::copy_n(images.data() + idx[i] * row, row,
                out.data() + (i - begin) * row);
  }
  return out;
}

}  // namespace

TrainStats fit_classifier(Sequential& model, const Tensor& images,
                          const std::vector<int>& labels, Optimizer& opt,
                          const TrainConfig& cfg) {
  if (images.rank() == 0 || images.dim(0) != labels.size()) {
    throw std::invalid_argument("fit_classifier: image/label count mismatch");
  }
  const std::size_t n = images.dim(0);
  Rng rng(cfg.shuffle_seed);
  SoftmaxCrossEntropy loss;
  Tape tape;
  TrainStats stats;
  DivergenceGuard guard(model, opt, stats);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto idx = shuffled_indices(n, rng);
    const std::size_t skipped_before = stats.skipped_batches;
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t b = 0; b < n; b += cfg.batch_size) {
      const std::size_t e = std::min(n, b + cfg.batch_size);
      Tensor x = gather_rows(images, idx, b, e);
      std::vector<int> y(e - b);
      for (std::size_t i = b; i < e; ++i) y[i - b] = labels[idx[i]];
      const Tensor logits = model.forward(x, Mode::Train, &tape);
      const float batch_loss = maybe_poison(loss.forward(logits, y));
      if (!std::isfinite(batch_loss)) {
        guard.on_divergence("non-finite loss", epoch, b / cfg.batch_size);
        continue;
      }
      opt.zero_grad();
      model.backward(loss.backward(), tape, opt.gradients());
      if (!guard.gradients_finite()) {
        guard.on_divergence("non-finite gradient", epoch, b / cfg.batch_size);
        continue;
      }
      opt.step();
      epoch_loss += batch_loss;
      ++batches;
    }
    stats.epoch_losses.push_back(
        batches ? static_cast<float>(epoch_loss / static_cast<double>(batches))
                : std::numeric_limits<float>::quiet_NaN());
    if (stats.skipped_batches == skipped_before) guard.refresh_snapshot();
    if (cfg.verbose) {
      std::printf("  epoch %zu/%zu  loss %.4f\n", epoch + 1, cfg.epochs,
                  stats.epoch_losses.back());
    }
  }
  return stats;
}

TrainStats fit_autoencoder(Sequential& model, const Tensor& images,
                           RegressionLoss& loss, float noise_std,
                           Optimizer& opt, const TrainConfig& cfg) {
  if (images.rank() == 0) {
    throw std::invalid_argument("fit_autoencoder: empty dataset");
  }
  const std::size_t n = images.dim(0);
  Rng rng(cfg.shuffle_seed);
  Rng noise_rng = rng.fork();
  Tape tape;
  TrainStats stats;
  DivergenceGuard guard(model, opt, stats);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto idx = shuffled_indices(n, rng);
    const std::size_t skipped_before = stats.skipped_batches;
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t b = 0; b < n; b += cfg.batch_size) {
      const std::size_t e = std::min(n, b + cfg.batch_size);
      const Tensor target = gather_rows(images, idx, b, e);
      Tensor x = target;
      if (noise_std > 0.0f) {
        for (float& v : x.values()) {
          v = std::clamp(
              v + static_cast<float>(noise_rng.normal(0.0, noise_std)), 0.0f,
              1.0f);
        }
      }
      const Tensor recon = model.forward(x, Mode::Train, &tape);
      const float batch_loss = maybe_poison(loss.forward(recon, target));
      if (!std::isfinite(batch_loss)) {
        guard.on_divergence("non-finite loss", epoch, b / cfg.batch_size);
        continue;
      }
      opt.zero_grad();
      model.backward(loss.backward(), tape, opt.gradients());
      if (!guard.gradients_finite()) {
        guard.on_divergence("non-finite gradient", epoch, b / cfg.batch_size);
        continue;
      }
      opt.step();
      epoch_loss += batch_loss;
      ++batches;
    }
    stats.epoch_losses.push_back(
        batches ? static_cast<float>(epoch_loss / static_cast<double>(batches))
                : std::numeric_limits<float>::quiet_NaN());
    if (stats.skipped_batches == skipped_before) guard.refresh_snapshot();
    if (cfg.verbose) {
      std::printf("  epoch %zu/%zu  recon loss %.5f\n", epoch + 1, cfg.epochs,
                  stats.epoch_losses.back());
    }
  }
  return stats;
}

Tensor predict(const Sequential& model, const Tensor& images,
               std::size_t batch_size) {
  if (images.rank() == 0) throw std::invalid_argument("predict: empty input");
  const std::size_t n = images.dim(0);
  Tensor out;
  for (std::size_t b = 0; b < n; b += batch_size) {
    const std::size_t e = std::min(n, b + batch_size);
    // Forward-only: Infer skips the per-layer backward-cache copies.
    const Tensor y = model.forward(images.slice_rows(b, e), Mode::Infer);
    if (out.empty()) {
      std::vector<std::size_t> dims = y.shape().dims();
      dims[0] = n;
      out = Tensor{Shape(dims)};
    }
    out.set_rows(b, y);
  }
  return out;
}

std::vector<int> predict_labels(const Sequential& model, const Tensor& images,
                                std::size_t batch_size) {
  const Tensor logits = predict(model, images, batch_size);
  std::vector<int> labels(logits.dim(0));
  for (std::size_t r = 0; r < logits.dim(0); ++r) {
    labels[r] = static_cast<int>(argmax_row(logits, r));
  }
  return labels;
}

float classification_accuracy(const Sequential& model, const Tensor& images,
                              const std::vector<int>& labels,
                              std::size_t batch_size) {
  if (images.dim(0) != labels.size()) {
    throw std::invalid_argument(
        "classification_accuracy: image/label count mismatch");
  }
  const std::vector<int> pred = predict_labels(model, images, batch_size);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == labels[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(pred.size());
}

}  // namespace adv::nn
