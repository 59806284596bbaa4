// Training-loop tests: losses decrease, classifiers learn, inference
// helpers batch correctly, and the divergence guard survives injected
// NaN losses (skip-batch + LR backoff + last-good-weights restore).
#include <gtest/gtest.h>

#include <cmath>

#include "data/syn_digits.hpp"
#include "fault/failpoint.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/structural.hpp"
#include "nn/trainer.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::nn {
namespace {

/// Small linearly-separable 2-class problem in 4 dimensions.
void make_blobs(Tensor& x, std::vector<int>& y, std::size_t n,
                std::uint64_t seed) {
  Rng rng(seed);
  x = Tensor({n, 4});
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    y[i] = cls;
    const float center = cls == 0 ? -1.0f : 1.0f;
    for (std::size_t d = 0; d < 4; ++d) {
      x.at(i, d) = center + static_cast<float>(rng.normal(0.0, 0.3));
    }
  }
}

Sequential mlp(Rng& rng) {
  Sequential m;
  m.emplace<Linear>(4, 8, rng);
  m.emplace<ReLU>();
  m.emplace<Linear>(8, 2, rng);
  return m;
}

TEST(FitClassifier, LearnsSeparableBlobs) {
  Tensor x;
  std::vector<int> y;
  make_blobs(x, y, 200, 11);
  Rng rng(12);
  Sequential m = mlp(rng);
  GradientSet grads(m);
  Adam opt(m.parameters(), grads.pointers(), 1e-2f);
  TrainConfig tc;
  tc.epochs = 15;
  tc.batch_size = 16;
  const TrainStats stats = fit_classifier(m, x, y, opt, tc);
  ASSERT_EQ(stats.epoch_losses.size(), 15u);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
  EXPECT_GT(classification_accuracy(m, x, y), 0.95f);
}

TEST(FitClassifier, RejectsMismatchedData) {
  Rng rng(13);
  Sequential m = mlp(rng);
  GradientSet grads(m);
  Adam opt(m.parameters(), grads.pointers());
  Tensor x({4, 4});
  std::vector<int> y = {0, 1};
  EXPECT_THROW(fit_classifier(m, x, y, opt, TrainConfig{}),
               std::invalid_argument);
}

TEST(FitClassifier, DeterministicGivenSeed) {
  Tensor x;
  std::vector<int> y;
  make_blobs(x, y, 100, 14);
  auto train_once = [&] {
    Rng rng(15);
    Sequential m = mlp(rng);
    GradientSet grads(m);
    Adam opt(m.parameters(), grads.pointers(), 1e-2f);
    TrainConfig tc;
    tc.epochs = 5;
    tc.shuffle_seed = 77;
    fit_classifier(m, x, y, opt, tc);
    return m.forward(x.slice_rows(0, 4), nn::Mode::Eval);
  };
  const Tensor a = train_once();
  const Tensor b = train_once();
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

bool all_parameters_finite(Sequential& m) {
  for (Tensor* p : m.parameters()) {
    for (float v : p->values()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

TEST(FitClassifier, CleanRunReportsNoDivergence) {
  fault::reset();
  Tensor x;
  std::vector<int> y;
  make_blobs(x, y, 100, 31);
  Rng rng(32);
  Sequential m = mlp(rng);
  GradientSet grads(m);
  Adam opt(m.parameters(), grads.pointers(), 1e-2f);
  TrainConfig tc;
  tc.epochs = 3;
  const TrainStats stats = fit_classifier(m, x, y, opt, tc);
  EXPECT_EQ(stats.skipped_batches, 0u);
  EXPECT_EQ(stats.lr_backoffs, 0u);
  EXPECT_EQ(stats.snapshot_restores, 0u);
}

TEST(FitClassifier, InjectedNanLossSkipsBatchAndBacksOff) {
  fault::reset();
  fault::arm("trainer.loss:nan_once");
  Tensor x;
  std::vector<int> y;
  make_blobs(x, y, 200, 33);
  Rng rng(34);
  Sequential m = mlp(rng);
  GradientSet grads(m);
  Adam opt(m.parameters(), grads.pointers(), 1e-2f);
  TrainConfig tc;
  tc.epochs = 10;
  tc.batch_size = 16;
  const TrainStats stats = fit_classifier(m, x, y, opt, tc);
  fault::reset();
  // Exactly the one poisoned batch was dropped, with one backoff+restore.
  EXPECT_EQ(stats.skipped_batches, 1u);
  EXPECT_EQ(stats.lr_backoffs, 1u);
  EXPECT_EQ(stats.snapshot_restores, 1u);
  EXPECT_FLOAT_EQ(opt.lr(), 5e-3f);
  // The run still converges on finite weights despite the fault.
  EXPECT_TRUE(all_parameters_finite(m));
  EXPECT_TRUE(std::isfinite(stats.epoch_losses.back()));
  EXPECT_GT(classification_accuracy(m, x, y), 0.9f);
}

TEST(FitClassifier, PersistentNanLossNeverPoisonsWeights) {
  fault::reset();
  fault::arm("trainer.loss:nan");  // every batch poisoned
  Tensor x;
  std::vector<int> y;
  make_blobs(x, y, 64, 35);
  Rng rng(36);
  Sequential m = mlp(rng);
  GradientSet grads(m);
  Adam opt(m.parameters(), grads.pointers(), 1e-2f);
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  const TrainStats stats = fit_classifier(m, x, y, opt, tc);
  fault::reset();
  EXPECT_EQ(stats.skipped_batches, 8u);  // 4 batches x 2 epochs, all dropped
  EXPECT_EQ(stats.lr_backoffs, 8u);
  EXPECT_TRUE(all_parameters_finite(m));  // no step ever ran on bad data
}

TEST(FitAutoencoder, InjectedNanLossSkipsAndRecovers) {
  fault::reset();
  fault::arm("trainer.loss:nan_once");
  data::SynDigitsConfig dc;
  dc.count = 96;
  dc.height = 16;
  dc.width = 16;
  const data::Dataset ds = data::make_syn_digits(dc);
  Rng rng(37);
  Sequential ae;
  ae.emplace<Conv2d>(Conv2d::same(1, 4), rng);
  ae.emplace<Sigmoid>();
  ae.emplace<Conv2d>(Conv2d::same(4, 1), rng);
  ae.emplace<Sigmoid>();
  GradientSet grads(ae);
  Adam opt(ae.parameters(), grads.pointers(), 3e-3f);
  MseLoss loss;
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  const TrainStats stats =
      fit_autoencoder(ae, ds.images, loss, /*noise_std=*/0.05f, opt, tc);
  fault::reset();
  EXPECT_EQ(stats.skipped_batches, 1u);
  EXPECT_EQ(stats.lr_backoffs, 1u);
  EXPECT_TRUE(all_parameters_finite(ae));
  EXPECT_TRUE(std::isfinite(stats.epoch_losses.back()));
}

TEST(FitAutoencoder, ReconstructionLossDecreases) {
  data::SynDigitsConfig dc;
  dc.count = 120;
  dc.height = 16;
  dc.width = 16;
  const data::Dataset ds = data::make_syn_digits(dc);
  Rng rng(16);
  Sequential ae;
  ae.emplace<Conv2d>(Conv2d::same(1, 4), rng);
  ae.emplace<Sigmoid>();
  ae.emplace<Conv2d>(Conv2d::same(4, 1), rng);
  ae.emplace<Sigmoid>();
  GradientSet grads(ae);
  Adam opt(ae.parameters(), grads.pointers(), 3e-3f);
  MseLoss loss;
  TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 32;
  const TrainStats stats =
      fit_autoencoder(ae, ds.images, loss, /*noise_std=*/0.05f, opt, tc);
  EXPECT_LT(stats.epoch_losses.back(), 0.8f * stats.epoch_losses.front());
}

TEST(Predict, BatchesMatchSinglePass) {
  Tensor x;
  std::vector<int> y;
  make_blobs(x, y, 50, 17);
  Rng rng(18);
  Sequential m = mlp(rng);
  const Tensor whole = m.forward(x, nn::Mode::Eval);
  const Tensor batched = predict(m, x, /*batch_size=*/7);
  ASSERT_EQ(whole.shape(), batched.shape());
  for (std::size_t i = 0; i < whole.numel(); ++i) {
    EXPECT_FLOAT_EQ(whole[i], batched[i]);
  }
}

TEST(PredictLabels, MatchesArgmax) {
  Tensor x;
  std::vector<int> y;
  make_blobs(x, y, 20, 19);
  Rng rng(20);
  Sequential m = mlp(rng);
  const Tensor logits = m.forward(x, nn::Mode::Eval);
  const std::vector<int> labels = predict_labels(m, x, 6);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], static_cast<int>(argmax_row(logits, i)));
  }
}

TEST(ClassificationAccuracy, PerfectAndZero) {
  Tensor x;
  std::vector<int> y;
  make_blobs(x, y, 40, 21);
  Rng rng(22);
  Sequential m = mlp(rng);
  GradientSet grads(m);
  Adam opt(m.parameters(), grads.pointers(), 1e-2f);
  TrainConfig tc;
  tc.epochs = 20;
  fit_classifier(m, x, y, opt, tc);
  EXPECT_GT(classification_accuracy(m, x, y), 0.95f);
  std::vector<int> wrong(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) wrong[i] = 1 - y[i];
  EXPECT_LT(classification_accuracy(m, x, wrong), 0.05f);
}

}  // namespace
}  // namespace adv::nn
