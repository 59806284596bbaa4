// Mini-batch training loops and batched inference helpers.
//
// A training step cuts each batch of n rows into B = min(kTrainBlocks, n)
// contiguous row blocks [b*n/B, (b+1)*n/B). The partition is a constant of
// the batch, not of the pool: the blocks' forward passes run in one
// ThreadPool::global().parallel_for, each an Eval pass on a tape of its
// own (inside a pool task the kernels run inline, so nothing splits
// further); the loss runs once on the stacked output, so its 1/n scale is
// the batch's; the blocks' backward passes run in parallel, each into a
// GradientSet of its own, and those sets are added into the optimizer's
// gradients in block order. Every sum a step computes therefore runs in an
// order fixed by the batch alone, and trained weights are bitwise the same
// at any pool size.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace adv::nn {

struct TrainConfig {
  std::size_t epochs = 5;
  std::size_t batch_size = 64;
  std::uint64_t shuffle_seed = 1;
  bool verbose = false;
};

struct TrainStats {
  std::vector<float> epoch_losses;  // mean loss per epoch (finite batches)

  // Divergence-guard accounting. Both fit loops validate every batch: a
  // non-finite loss or gradient skips the optimizer step, halves the
  // learning rate, and rolls the model back to the last-good weights
  // snapshot (refreshed after each clean epoch), so one poisoned batch
  // (hardware fault, fault injection, exploding loss) cannot destroy an
  // hours-long run.
  std::size_t skipped_batches = 0;    // batches dropped for non-finite values
  std::size_t lr_backoffs = 0;        // times the learning rate was halved
  std::size_t snapshot_restores = 0;  // rollbacks to last-good weights
};

/// Row blocks per training step (see top). A constant, not a setting: it
/// fixes the float summation order, and so the trained weights.
inline constexpr std::size_t kTrainBlocks = 4;

/// One training step's forward and backward over a batch, cut into
/// min(kTrainBlocks, n) fixed row blocks (see top). Keeps each block's
/// tape and gradient set, reused from batch to batch.
class BlockedPass {
 public:
  /// Edits block `block`'s copy of its input rows inside the block's task,
  /// before its forward (fit_autoencoder's input noise).
  using Prepare = std::function<void(std::size_t block, Tensor& rows)>;

  explicit BlockedPass(const Sequential& model);

  /// Runs the blocks' forward passes on the pool and returns their
  /// outputs stacked in row order.
  Tensor forward(const Tensor& x, const Prepare& prepare = {});

  /// Backpropagates d(loss)/d(stacked output) of the last forward(): each
  /// block into its own gradient set, in parallel. `grads` (aligned with
  /// the model's parameters()) is overwritten with the sum of those sets,
  /// added in block order.
  void backward(const Tensor& grad_output, const std::vector<Tensor*>& grads);

 private:
  const Sequential& model_;
  std::vector<Tape> tapes_;
  std::vector<GradientSet> grads_;
};

/// Trains a classifier (logit outputs) with softmax cross-entropy; each
/// batch runs one BlockedPass step into opt.gradients().
TrainStats fit_classifier(Sequential& model, const Tensor& images,
                          const std::vector<int>& labels, Optimizer& opt,
                          const TrainConfig& cfg);

/// Trains an auto-encoder to reconstruct its input under `loss`. If
/// `noise_std > 0`, Gaussian noise is added to the *input* while the target
/// stays clean (MagNet trains its auto-encoders with small-noise
/// regularization so the learned map contracts toward the data manifold).
/// Each batch forks one noise generator per row block, in block order, and
/// each block noises its own rows inside its task.
TrainStats fit_autoencoder(Sequential& model, const Tensor& images,
                           RegressionLoss& loss, float noise_std,
                           Optimizer& opt, const TrainConfig& cfg);

/// Runs the model over `images` in batches and returns stacked outputs.
Tensor predict(const Sequential& model, const Tensor& images,
               std::size_t batch_size = 128);

/// Argmax labels from a classifier's logits.
std::vector<int> predict_labels(const Sequential& model, const Tensor& images,
                                std::size_t batch_size = 128);

/// Fraction of images whose argmax prediction equals the label.
float classification_accuracy(const Sequential& model, const Tensor& images,
                              const std::vector<int>& labels,
                              std::size_t batch_size = 128);

}  // namespace adv::nn
