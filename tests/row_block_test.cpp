// Row-block passes (nn/sequential.hpp): an Eval or Infer pass over N >= 2
// rows runs as min(T, N) row blocks on the global pool. On the MNIST and
// CIFAR classifiers and default MagNet auto-encoders, the outputs and the
// input gradient of a split pass must be bitwise what row-by-row passes
// compute, the model counters must count logical calls, and weight
// gradients from a split Eval tape must not depend on scheduling.
// tools/ci.sh also runs this binary under ThreadSanitizer, at the default
// pool size and at ADV_THREADS=3 (uneven blocks).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "core/model_zoo.hpp"
#include "magnet/autoencoder.hpp"
#include "nn/sequential.hpp"
#include "obs/metrics.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace adv {
namespace {

using nn::Mode;

constexpr std::size_t kRows[] = {1, 2, 3, 5, 60, 61};
constexpr std::size_t kMaxRows = 61;

Tensor uniform(const Shape& shape, std::uint64_t seed, float lo, float hi) {
  Tensor t(shape);
  Rng rng(seed);
  fill_uniform(t, rng, lo, hi);
  return t;
}

Tensor images(std::size_t rows, std::size_t c, std::size_t hw) {
  return uniform(Shape({rows, c, hw, hw}), 5, 0.0f, 1.0f);
}

// Blocks a top-level pass over `n` rows is expected to record.
std::size_t expected_blocks(std::size_t n) {
  const std::size_t t = ThreadPool::global().thread_count();
  return n >= 2 && t > 1 ? std::min(t, n) : 0;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Row r of `batch` equals the 1-row tensor `row`, bit for bit.
bool row_equal(const Tensor& batch, std::size_t r, const Tensor& row) {
  const std::size_t stride = batch.numel() / batch.dim(0);
  return row.numel() == stride &&
         std::memcmp(batch.data() + r * stride, row.data(),
                     stride * sizeof(float)) == 0;
}

nn::Sequential classifier(core::DatasetId id, std::size_t hw) {
  Rng rng(17);
  return core::build_classifier(id, hw, rng);
}

nn::Sequential autoencoder(magnet::AeArch arch, std::size_t channels) {
  magnet::AutoencoderConfig cfg;
  cfg.arch = arch;
  cfg.image_channels = channels;
  Rng rng(23);
  return magnet::build_autoencoder(cfg, rng);
}

// Eval forward, Infer forward and the input gradient over the first N
// rows of one batch, for every N in kRows, against 1-row passes (which
// never split).
void expect_row_split_identity(const nn::Sequential& model, std::size_t c,
                               std::size_t hw) {
  const Tensor x = images(kMaxRows, c, hw);
  Tensor seed;
  std::vector<Tensor> eval_rows, infer_rows, grad_rows;
  for (std::size_t r = 0; r < kMaxRows; ++r) {
    const Tensor xr = x.slice_rows(r, r + 1);
    nn::Tape tape;
    Tensor y = model.forward(xr, Mode::Eval, &tape);
    ASSERT_TRUE(tape.blocks.empty()) << "a 1-row pass split";
    if (seed.empty()) {
      std::vector<std::size_t> dims = y.shape().dims();
      dims[0] = kMaxRows;
      seed = uniform(Shape(dims), 6, -1.0f, 1.0f);
    }
    grad_rows.push_back(model.backward(seed.slice_rows(r, r + 1), tape));
    eval_rows.push_back(std::move(y));
    infer_rows.push_back(model.forward(xr, Mode::Infer));
  }
  for (const std::size_t n : kRows) {
    const Tensor xs = x.slice_rows(0, n);
    nn::Tape tape;
    const Tensor y = model.forward(xs, Mode::Eval, &tape);
    EXPECT_EQ(tape.blocks.size(), expected_blocks(n)) << "N=" << n;
    const Tensor yi = model.forward(xs, Mode::Infer);
    const Tensor g = model.backward(seed.slice_rows(0, n), tape);
    ASSERT_EQ(y.dim(0), n);
    ASSERT_EQ(yi.dim(0), n);
    ASSERT_EQ(g.shape(), xs.shape());
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_TRUE(row_equal(y, r, eval_rows[r])) << "Eval N=" << n
                                                 << " row " << r;
      EXPECT_TRUE(row_equal(yi, r, infer_rows[r])) << "Infer N=" << n
                                                   << " row " << r;
      EXPECT_TRUE(row_equal(g, r, grad_rows[r])) << "grad N=" << n
                                                 << " row " << r;
    }
  }
}

TEST(RowBlocks, MnistClassifierMatchesRowByRow) {
  expect_row_split_identity(classifier(core::DatasetId::Mnist, 28), 1, 28);
}

TEST(RowBlocks, CifarClassifierMatchesRowByRow) {
  expect_row_split_identity(classifier(core::DatasetId::Cifar, 32), 3, 32);
}

TEST(RowBlocks, MnistDefaultAutoencodersMatchRowByRow) {
  expect_row_split_identity(autoencoder(magnet::AeArch::MnistDeep, 1), 1, 28);
  expect_row_split_identity(autoencoder(magnet::AeArch::MnistShallow, 1), 1,
                            28);
}

TEST(RowBlocks, CifarDefaultAutoencoderMatchesRowByRow) {
  expect_row_split_identity(autoencoder(magnet::AeArch::Cifar, 3), 3, 32);
}

TEST(RowBlocks, CountersAdvanceOncePerCall) {
  const bool obs_was = obs::enabled();
  if (!obs::enabled_pinned_by_env()) obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs off: passes are not counted";
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& forwards = reg.counter("model/forward_calls");
  obs::Counter& backwards = reg.counter("model/backward_calls");
  const nn::Sequential model = classifier(core::DatasetId::Mnist, 28);
  for (const std::size_t n : kRows) {
    const Tensor x = images(n, 1, 28);
    nn::Tape tape;
    std::uint64_t before = forwards.value();
    const Tensor y = model.forward(x, Mode::Eval, &tape);
    EXPECT_EQ(forwards.value() - before, 1u) << "Eval N=" << n;
    before = forwards.value();
    model.forward(x, Mode::Infer);
    EXPECT_EQ(forwards.value() - before, 1u) << "Infer N=" << n;
    const Tensor seed(y.shape(), 1.0f);
    before = backwards.value();
    model.backward(seed, tape);
    EXPECT_EQ(backwards.value() - before, 1u) << "input grad N=" << n;
    nn::GradientSet grads(model);
    before = backwards.value();
    model.backward(seed, tape, grads.pointers());
    EXPECT_EQ(backwards.value() - before, 1u) << "weight grads N=" << n;
  }
  if (!obs::enabled_pinned_by_env()) obs::set_enabled(obs_was);
}

TEST(RowBlocks, WeightGradientsFromSplitEvalTapeAreDeterministic) {
  const nn::Sequential model = classifier(core::DatasetId::Cifar, 32);
  const Tensor x = images(kMaxRows, 3, 32);
  const Tensor seed = uniform(Shape({kMaxRows, 10}), 8, -1.0f, 1.0f);
  const auto run = [&] {
    nn::Tape tape;
    model.forward(x, Mode::Eval, &tape);
    EXPECT_EQ(tape.blocks.size(), expected_blocks(kMaxRows));
    nn::GradientSet grads(model);
    const Tensor dx = model.backward(seed, tape, grads.pointers());
    std::vector<Tensor> out{dx};
    for (std::size_t i = 0; i < grads.size(); ++i) out.push_back(grads[i]);
    return out;
  };
  const std::vector<Tensor> first = run();
  for (int repeat = 0; repeat < 3; ++repeat) {
    const std::vector<Tensor> again = run();
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(again[i], first[i]))
          << (i == 0 ? "input gradient" : "parameter gradient " +
                                              std::to_string(i - 1))
          << ", repeat " << repeat;
    }
  }
}

// A pass issued from inside a pool task stays whole (its kernels run
// inline) and still computes the split pass's result.
TEST(RowBlocks, PassInsideAPoolTaskStaysWhole) {
  const nn::Sequential model = classifier(core::DatasetId::Mnist, 28);
  const Tensor x = images(5, 1, 28);
  const Tensor want = model.forward(x, Mode::Eval);
  std::vector<Tensor> got(2);
  std::vector<std::size_t> blocks(2, 99);
  std::atomic<int> mismatches{0};
  ThreadPool::global().parallel_for(0, 2, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      nn::Tape tape;
      got[i] = model.forward(x, Mode::Eval, &tape);
      blocks[i] = tape.blocks.size();
      if (tape.entries.size() != model.size()) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(blocks[i], 0u);
    EXPECT_TRUE(bitwise_equal(got[i], want));
  }
}

// A tape reused across split and unsplit passes keeps only the last one.
TEST(RowBlocks, ReusedTapeFollowsTheLastPass) {
  const nn::Sequential model = classifier(core::DatasetId::Mnist, 28);
  const Tensor x = images(5, 1, 28);
  const Tensor seed = uniform(Shape({5, 10}), 9, -1.0f, 1.0f);
  nn::Tape fresh, reused;
  model.forward(x, Mode::Eval, &fresh);
  const Tensor want = model.backward(seed, fresh);
  model.forward(x.slice_rows(0, 1), Mode::Eval, &reused);  // unsplit
  model.forward(x, Mode::Eval, &reused);                   // split
  EXPECT_TRUE(bitwise_equal(model.backward(seed, reused), want));
  model.forward(x.slice_rows(0, 1), Mode::Eval, &reused);
  EXPECT_TRUE(reused.blocks.empty());
  EXPECT_EQ(reused.entries.size(), model.size());
}

}  // namespace
}  // namespace adv
