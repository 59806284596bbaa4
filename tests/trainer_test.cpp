// Training-loop tests: losses decrease, classifiers learn, inference
// helpers batch correctly, the divergence guard survives injected NaN
// losses (skip-batch + LR backoff + last-good-weights restore), and a
// training step's fixed row blocks give the same weights at any pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>

#include "data/syn_digits.hpp"
#include "fault/failpoint.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/structural.hpp"
#include "nn/trainer.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

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

// --- row-blocked training steps --------------------------------------------

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Runs `fn` as a task of a separate pool, where every global-pool call
// runs inline: the blocks of a step then run one after another, in block
// order, as on a pool of one thread.
void run_in_pool_task(const std::function<void()>& fn) {
  ThreadPool outer(2);
  outer.parallel_for(0, 2, [&](std::size_t b, std::size_t) {
    if (b == 0) fn();
  });
}

// Conv, fused Conv->ReLU, pooling and Linear layers: every kind of
// parameter-gradient reduction a training step has.
Sequential small_cnn(std::uint64_t seed) {
  Rng rng(seed);
  Sequential m;
  m.emplace<Conv2d>(Conv2d::same(1, 4), rng);
  m.emplace<ReLU>();
  m.emplace<MaxPool2d>(2);
  m.emplace<Conv2d>(Conv2d::same(4, 6), rng);
  m.emplace<Sigmoid>();
  m.emplace<Flatten>();
  m.emplace<Linear>(6 * 4 * 4, 10, rng);
  return m;
}

data::Dataset digits(std::size_t count) {
  data::SynDigitsConfig dc;
  dc.count = count;
  dc.height = 8;
  dc.width = 8;
  return data::make_syn_digits(dc);
}

struct StepResult {
  Tensor out;
  std::vector<Tensor> grads;
};

// One blocked classifier step's output and reduced gradients.
StepResult blocked_step(const Sequential& m, const data::Dataset& ds) {
  BlockedPass pass(m);
  SoftmaxCrossEntropy loss;
  StepResult r{pass.forward(ds.images), {}};
  loss.forward(r.out, ds.labels);
  GradientSet grads(m);
  pass.backward(loss.backward(), grads.pointers());
  for (std::size_t i = 0; i < grads.size(); ++i) r.grads.push_back(grads[i]);
  return r;
}

TEST(BlockedPass, ParallelBlocksEqualTheSameBlocksRunSerially) {
  const Sequential m = small_cnn(51);
  for (const std::size_t n : {10u, 3u, 1u}) {
    const data::Dataset ds = digits(n);
    const StepResult parallel = blocked_step(m, ds);
    // By hand: kTrainBlocks-way row split, each block an unsplit pass, the
    // gradient sets summed in block order.
    StepResult serial;
    run_in_pool_task([&] {
      const std::size_t blocks = std::min(kTrainBlocks, n);
      std::vector<Tape> tapes(blocks);
      serial.out = Tensor(parallel.out.shape());
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t r0 = b * n / blocks, r1 = (b + 1) * n / blocks;
        serial.out.set_rows(r0, m.forward(ds.images.slice_rows(r0, r1),
                                          Mode::Eval, &tapes[b]));
      }
      SoftmaxCrossEntropy loss;
      loss.forward(serial.out, ds.labels);
      const Tensor g = loss.backward();
      GradientSet total(m);
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t r0 = b * n / blocks, r1 = (b + 1) * n / blocks;
        GradientSet part(m);
        m.backward(g.slice_rows(r0, r1), tapes[b], part.pointers());
        for (std::size_t i = 0; i < total.size(); ++i) {
          add_inplace(total[i], part[i]);
        }
      }
      for (std::size_t i = 0; i < total.size(); ++i) {
        serial.grads.push_back(total[i]);
      }
    });
    EXPECT_TRUE(bitwise_equal(parallel.out, serial.out)) << "n = " << n;
    ASSERT_EQ(parallel.grads.size(), serial.grads.size());
    for (std::size_t i = 0; i < serial.grads.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(parallel.grads[i], serial.grads[i]))
          << "parameter gradient " << i << ", n = " << n;
    }
  }
}

// The blocks only regroup the float sums of the whole-batch gradient.
// Tolerance: every element within 1e-5 of its tensor's largest magnitude.
TEST(BlockedPass, GradientsMatchTheUnsplitBatchWithinTolerance) {
  const Sequential m = small_cnn(52);
  const data::Dataset ds = digits(29);
  const StepResult blocked = blocked_step(m, ds);
  std::vector<Tensor> whole;
  run_in_pool_task([&] {
    Tape tape;
    SoftmaxCrossEntropy loss;
    loss.forward(m.forward(ds.images, Mode::Eval, &tape), ds.labels);
    GradientSet grads(m);
    m.backward(loss.backward(), tape, grads.pointers());
    for (std::size_t i = 0; i < grads.size(); ++i) whole.push_back(grads[i]);
  });
  ASSERT_EQ(whole.size(), blocked.grads.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    const float scale = std::max(max_value(whole[i]), -min_value(whole[i]));
    ASSERT_GT(scale, 0.0f) << "parameter gradient " << i;
    for (std::size_t j = 0; j < whole[i].numel(); ++j) {
      EXPECT_NEAR(blocked.grads[i][j], whole[i][j], 1e-5f * scale)
          << "parameter gradient " << i << " element " << j;
    }
  }
}

std::vector<Tensor> parameters_of(Sequential& m) {
  std::vector<Tensor> out;
  for (const Tensor* p : m.parameters()) out.push_back(*p);
  return out;
}

// Trains small_cnn on `count` digits, batch size `batch`, with the
// classifier loop or the noised auto-encoder loop (the CNN's own input
// reconstructed through a Conv->Sigmoid pair).
std::vector<Tensor> train(bool autoencoder, std::size_t count,
                          std::size_t batch) {
  const data::Dataset ds = digits(count);
  Rng rng(53);
  Sequential m;
  if (autoencoder) {
    m.emplace<Conv2d>(Conv2d::same(1, 3), rng);
    m.emplace<ReLU>();
    m.emplace<Conv2d>(Conv2d::same(3, 1), rng);
    m.emplace<Sigmoid>();
  } else {
    m = small_cnn(53);
  }
  GradientSet grads(m);
  Adam opt(m.parameters(), grads.pointers(), 1e-2f);
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = batch;
  TrainStats stats;
  if (autoencoder) {
    MseLoss loss;
    stats = fit_autoencoder(m, ds.images, loss, 0.1f, opt, tc);
  } else {
    stats = fit_classifier(m, ds.images, ds.labels, opt, tc);
  }
  EXPECT_EQ(stats.skipped_batches, 0u);
  EXPECT_TRUE(all_parameters_finite(m));
  return parameters_of(m);
}

// Pool-size independence end to end: the global pool runs the blocks in
// parallel, a pool task runs them inline one by one. Batches smaller than
// kTrainBlocks (5 rows at batch size 2: blocks of 2, 2 and 1 rows) and an
// epoch tail (92 = 64 + 28 rows) included.
TEST(BlockedPass, TrainedWeightsDoNotDependOnThePool) {
  struct Case {
    bool autoencoder;
    std::size_t count, batch;
  };
  for (const Case c : {Case{false, 5, 2}, Case{false, 92, 64},
                       Case{true, 5, 2}, Case{true, 92, 64}}) {
    const std::vector<Tensor> pooled = train(c.autoencoder, c.count, c.batch);
    std::vector<Tensor> inline_run;
    run_in_pool_task(
        [&] { inline_run = train(c.autoencoder, c.count, c.batch); });
    ASSERT_EQ(pooled.size(), inline_run.size());
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(pooled[i], inline_run[i]))
          << (c.autoencoder ? "autoencoder" : "classifier") << " count "
          << c.count << " batch " << c.batch << " parameter " << i;
    }
  }
}

// A NaN pixel in one row poisons its block's pass: through the loss or,
// where ReLU zeroes the NaN activations, through that block's gradient
// set and so the reduced gradients. Either way the batch holding the row
// is skipped, once per epoch, and no step ever sees the NaN.
TEST(BlockedPass, PoisonedRowSkipsItsBatch) {
  fault::reset();
  data::Dataset ds = digits(40);
  ds.images[17 * 64 + 5] = std::numeric_limits<float>::quiet_NaN();
  Sequential m = small_cnn(54);
  GradientSet grads(m);
  Adam opt(m.parameters(), grads.pointers(), 1e-2f);
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 8;
  const TrainStats stats = fit_classifier(m, ds.images, ds.labels, opt, tc);
  EXPECT_EQ(stats.skipped_batches, 3u);
  EXPECT_EQ(stats.lr_backoffs, 3u);
  EXPECT_TRUE(all_parameters_finite(m));
  for (const float loss : stats.epoch_losses) EXPECT_TRUE(std::isfinite(loss));
}

// Prepare runs once per block, on a copy of that block's rows, before the
// block's forward; the caller's input is left as it was.
TEST(BlockedPass, PrepareEditsEachBlockCopyOnce) {
  const Sequential m = small_cnn(56);
  const data::Dataset ds = digits(10);
  const Tensor input = ds.images;
  std::mutex mu;
  std::vector<std::size_t> rows_seen(kTrainBlocks, 0);
  std::vector<bool> rows_match(kTrainBlocks, false);
  BlockedPass pass(m);
  const Tensor out =
      pass.forward(ds.images, [&](std::size_t b, Tensor& rows) {
        const std::size_t r0 = b * 10 / kTrainBlocks;
        const bool match =
            bitwise_equal(rows, ds.images.slice_rows(r0, r0 + rows.dim(0)));
        {
          std::lock_guard<std::mutex> lock(mu);
          rows_seen[b] += rows.dim(0);
          rows_match[b] = match;
        }
        rows.fill(0.0f);
      });
  // 10 rows in 4 blocks: [0, 2), [2, 5), [5, 7), [7, 10).
  EXPECT_EQ(rows_seen, (std::vector<std::size_t>{2, 3, 2, 3}));
  EXPECT_EQ(rows_match, std::vector<bool>(kTrainBlocks, true));
  EXPECT_TRUE(bitwise_equal(ds.images, input));
  const Tensor zeros(ds.images.shape(), 0.0f);
  EXPECT_TRUE(bitwise_equal(out, BlockedPass(m).forward(zeros)));
}

// backward() overwrites the caller's gradients rather than adding to them.
TEST(BlockedPass, BackwardOverwritesTheCallersGradients) {
  const Sequential m = small_cnn(57);
  const data::Dataset ds = digits(6);
  const StepResult fresh = blocked_step(m, ds);
  BlockedPass pass(m);
  SoftmaxCrossEntropy loss;
  loss.forward(pass.forward(ds.images), ds.labels);
  GradientSet grads(m);
  for (std::size_t i = 0; i < grads.size(); ++i) grads[i].fill(123.0f);
  pass.backward(loss.backward(), grads.pointers());
  ASSERT_EQ(grads.size(), fresh.grads.size());
  for (std::size_t i = 0; i < grads.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(grads[i], fresh.grads[i]))
        << "parameter gradient " << i;
  }
}

// One pass serves every batch of a fit loop. A batch with fewer blocks
// than the one before (4 blocks, then 2, as at an epoch tail) must not
// pick up the earlier batch's block gradients.
TEST(BlockedPass, ReusedPassEqualsAFreshOne) {
  const Sequential m = small_cnn(58);
  BlockedPass pass(m);
  for (const std::size_t n : {10u, 2u}) {
    const data::Dataset ds = digits(n);
    SoftmaxCrossEntropy loss;
    const Tensor out = pass.forward(ds.images);
    loss.forward(out, ds.labels);
    GradientSet grads(m);
    pass.backward(loss.backward(), grads.pointers());
    const StepResult fresh = blocked_step(m, ds);
    EXPECT_TRUE(bitwise_equal(out, fresh.out)) << "n = " << n;
    ASSERT_EQ(grads.size(), fresh.grads.size());
    for (std::size_t i = 0; i < grads.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(grads[i], fresh.grads[i]))
          << "parameter gradient " << i << ", n = " << n;
    }
  }
}

// Conv2d's parameter gradients accumulate in sample order on the calling
// thread, so they do not depend on the pool the layer runs on (set_pool).
TEST(Conv2dBackward, ParameterGradientsEqualAtPoolsOfOneAndThree) {
  ThreadPool one(1), three(3);
  for (const bool force_im2col : {false, true}) {
    Rng rng(55);
    Conv2d conv(Conv2d::same(3, 5), rng);
    conv.set_force_im2col(force_im2col);
    Tensor x({7, 3, 9, 9});
    fill_uniform(x, rng, 0.0f, 1.0f);
    Tensor seed({7, 5, 9, 9});
    fill_uniform(seed, rng, -1.0f, 1.0f);
    std::vector<std::vector<Tensor>> results;
    for (ThreadPool* pool : {&one, &three}) {
      conv.set_pool(pool);
      TapeEntry saved;
      conv.forward(x, Mode::Eval, &saved);
      GradientSet grads(conv);
      const Tensor dx = conv.backward(seed, saved, grads.pointers());
      results.push_back({dx, grads[0], grads[1]});
    }
    conv.set_pool(nullptr);
    const char* names[] = {"input", "weight", "bias"};
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(bitwise_equal(results[0][i], results[1][i]))
          << names[i] << " gradient, im2col " << force_im2col;
    }
  }
}

// The Layer contract: parameter gradients add to what the caller's slots
// already hold. Tolerance: 1e-5 of the largest magnitude the slot holds.
TEST(Conv2dBackward, ParameterGradientsAddToTheCallersSlots) {
  for (const bool force_im2col : {false, true}) {
    Rng rng(59);
    Conv2d conv(Conv2d::same(2, 3), rng);
    conv.set_force_im2col(force_im2col);
    Tensor x({5, 2, 6, 6});
    fill_uniform(x, rng, 0.0f, 1.0f);
    Tensor seed({5, 3, 6, 6});
    fill_uniform(seed, rng, -1.0f, 1.0f);
    TapeEntry saved;
    conv.forward(x, Mode::Eval, &saved);
    GradientSet fresh(conv), held(conv);
    conv.backward(seed, saved, fresh.pointers());
    for (std::size_t i = 0; i < held.size(); ++i) held[i].fill(0.5f);
    conv.backward(seed, saved, held.pointers());
    const char* names[] = {"weight", "bias"};
    ASSERT_EQ(held.size(), 2u);
    for (std::size_t i = 0; i < held.size(); ++i) {
      const float scale =
          std::max(max_value(fresh[i]), -min_value(fresh[i]));
      ASSERT_GT(scale, 0.0f) << names[i];
      for (std::size_t j = 0; j < fresh[i].numel(); ++j) {
        EXPECT_NEAR(held[i][j], fresh[i][j] + 0.5f, 1e-5f * (scale + 0.5f))
            << names[i] << " element " << j << ", im2col " << force_im2col;
      }
    }
  }
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
