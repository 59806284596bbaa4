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
#include "tensor/thread_pool.hpp"
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

// Blocks of a batch of n rows, and the first row of block b.
std::size_t train_blocks(std::size_t n) { return std::min(kTrainBlocks, n); }
std::size_t block_row(std::size_t b, std::size_t n) {
  return b * n / train_blocks(n);
}

// One batch of a fit loop: the model input, an optional per-block edit of
// its rows, and the loss, which scores the stacked output against the
// (unedited) input and sets `grad` to d(loss)/d(output).
struct Batch {
  Tensor x;
  BlockedPass::Prepare prepare;
  std::function<float(const Tensor& x, const Tensor& out, Tensor& grad)> loss;
};

// The epoch loop both fit_* share: shuffle, one BlockedPass step per
// batch, the divergence guard around it. `make_batch(idx, begin, end)`
// builds the batch of shuffled rows idx[begin, end).
TrainStats fit_batches(
    Sequential& model, std::size_t n, Rng& rng, Optimizer& opt,
    const TrainConfig& cfg, const char* epoch_format,
    const std::function<Batch(const std::vector<std::size_t>&, std::size_t,
                              std::size_t)>& make_batch) {
  TrainStats stats;
  DivergenceGuard guard(model, opt, stats);
  BlockedPass pass(model);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto idx = shuffled_indices(n, rng);
    const std::size_t skipped_before = stats.skipped_batches;
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t b = 0; b < n; b += cfg.batch_size) {
      const Batch batch = make_batch(idx, b, std::min(n, b + cfg.batch_size));
      const Tensor out = pass.forward(batch.x, batch.prepare);
      Tensor grad;
      const float batch_loss = maybe_poison(batch.loss(batch.x, out, grad));
      if (!std::isfinite(batch_loss)) {
        guard.on_divergence("non-finite loss", epoch, b / cfg.batch_size);
        continue;
      }
      pass.backward(grad, opt.gradients());
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
      std::printf(epoch_format, epoch + 1, cfg.epochs,
                  static_cast<double>(stats.epoch_losses.back()));
    }
  }
  return stats;
}

}  // namespace

BlockedPass::BlockedPass(const Sequential& model)
    : model_(model), tapes_(kTrainBlocks) {
  for (std::size_t b = 0; b < kTrainBlocks; ++b) grads_.emplace_back(model);
}

Tensor BlockedPass::forward(const Tensor& x, const Prepare& prepare) {
  const std::size_t n = x.dim(0);
  std::vector<Tensor> outs(train_blocks(n));
  // Each block runs inside one pool chunk, where its pass stays whole.
  ThreadPool::global().parallel_for(
      0, outs.size(), [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) {
          Tensor rows = x.slice_rows(block_row(b, n), block_row(b + 1, n));
          if (prepare) prepare(b, rows);
          outs[b] = model_.forward(rows, Mode::Eval, &tapes_[b]);
        }
      });
  return stack_rows(outs);
}

void BlockedPass::backward(const Tensor& grad_output,
                           const std::vector<Tensor*>& grads) {
  const std::size_t n = grad_output.dim(0);
  const std::size_t blocks = train_blocks(n);
  ThreadPool::global().parallel_for(
      0, blocks, [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b) {
          grads_[b].zero();
          model_.backward(
              grad_output.slice_rows(block_row(b, n), block_row(b + 1, n)),
              tapes_[b], grads_[b].pointers());
        }
      });
  for (std::size_t i = 0; i < grads.size(); ++i) {
    grads[i]->fill(0.0f);
    for (std::size_t b = 0; b < blocks; ++b) {
      add_inplace(*grads[i], grads_[b][i]);
    }
  }
}

TrainStats fit_classifier(Sequential& model, const Tensor& images,
                          const std::vector<int>& labels, Optimizer& opt,
                          const TrainConfig& cfg) {
  if (images.rank() == 0 || images.dim(0) != labels.size()) {
    throw std::invalid_argument("fit_classifier: image/label count mismatch");
  }
  Rng rng(cfg.shuffle_seed);
  SoftmaxCrossEntropy loss;
  return fit_batches(
      model, images.dim(0), rng, opt, cfg, "  epoch %zu/%zu  loss %.4f\n",
      [&](const std::vector<std::size_t>& idx, std::size_t b, std::size_t e) {
        std::vector<int> y(e - b);
        for (std::size_t i = b; i < e; ++i) y[i - b] = labels[idx[i]];
        return Batch{gather_rows(images, idx, b, e), {},
                     [&loss, y = std::move(y)](const Tensor&,
                                               const Tensor& logits,
                                               Tensor& grad) {
                       const float value = loss.forward(logits, y);
                       grad = loss.backward();
                       return value;
                     }};
      });
}

TrainStats fit_autoencoder(Sequential& model, const Tensor& images,
                           RegressionLoss& loss, float noise_std,
                           Optimizer& opt, const TrainConfig& cfg) {
  if (images.rank() == 0) {
    throw std::invalid_argument("fit_autoencoder: empty dataset");
  }
  Rng rng(cfg.shuffle_seed);
  Rng noise_rng = rng.fork();
  return fit_batches(
      model, images.dim(0), rng, opt, cfg,
      "  epoch %zu/%zu  recon loss %.5f\n",
      [&](const std::vector<std::size_t>& idx, std::size_t b, std::size_t e) {
        Batch batch{gather_rows(images, idx, b, e), {},
                    [&loss](const Tensor& target, const Tensor& recon,
                            Tensor& grad) {
                      const float value = loss.forward(recon, target);
                      grad = loss.backward();
                      return value;
                    }};
        if (noise_std > 0.0f) {
          std::vector<Rng> rngs;
          for (std::size_t k = 0; k < train_blocks(e - b); ++k) {
            rngs.push_back(noise_rng.fork());
          }
          batch.prepare = [noise_std, rngs = std::move(rngs)](
                              std::size_t block, Tensor& rows) mutable {
            Rng& r = rngs[block];
            for (float& v : rows.values()) {
              v = std::clamp(v + static_cast<float>(r.normal(0.0, noise_std)),
                             0.0f, 1.0f);
            }
          };
        }
        return batch;
      });
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
