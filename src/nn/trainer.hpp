// Mini-batch training loops and batched inference helpers.
#pragma once

#include <cstdint>
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

/// Trains a classifier (logit outputs) with softmax cross-entropy; each
/// batch's backward accumulates into opt.gradients().
TrainStats fit_classifier(Sequential& model, const Tensor& images,
                          const std::vector<int>& labels, Optimizer& opt,
                          const TrainConfig& cfg);

/// Trains an auto-encoder to reconstruct its input under `loss`. If
/// `noise_std > 0`, Gaussian noise is added to the *input* while the target
/// stays clean (MagNet trains its auto-encoders with small-noise
/// regularization so the learned map contracts toward the data manifold).
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
