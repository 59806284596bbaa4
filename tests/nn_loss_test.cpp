// Loss and optimizer tests.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::nn {
namespace {

TEST(SoftmaxCrossEntropy, MatchesManualComputation) {
  SoftmaxCrossEntropy loss;
  Tensor logits = Tensor::from_data(Shape({2, 3}), {1, 2, 3, 0, 0, 0});
  const float l = loss.forward(logits, {2, 1});
  // Row 0: -log(softmax_2) = log(e^1+e^2+e^3) - 3
  const double row0 =
      std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0)) - 3.0;
  const double row1 = std::log(3.0);
  EXPECT_NEAR(l, (row0 + row1) / 2.0, 1e-5);
}

TEST(SoftmaxCrossEntropy, GradientIsSoftmaxMinusOneHot) {
  SoftmaxCrossEntropy loss;
  Tensor logits = Tensor::from_data(Shape({1, 3}), {0.5f, -0.2f, 1.0f});
  loss.forward(logits, {1});
  const Tensor grad = loss.backward();
  const Tensor p = softmax_rows(logits);
  EXPECT_NEAR(grad[0], p[0], 1e-5f);
  EXPECT_NEAR(grad[1], p[1] - 1.0f, 1e-5f);
  EXPECT_NEAR(grad[2], p[2], 1e-5f);
}

TEST(SoftmaxCrossEntropy, NumericalGradientCheck) {
  SoftmaxCrossEntropy loss;
  Rng rng(3);
  Tensor logits({3, 5});
  fill_normal(logits, rng, 0.0f, 1.0f);
  const std::vector<int> labels = {4, 0, 2};
  loss.forward(logits, labels);
  const Tensor grad = loss.backward();
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    SoftmaxCrossEntropy probe;
    const double num =
        (probe.forward(lp, labels) - probe.forward(lm, labels)) / (2.0 * eps);
    EXPECT_NEAR(grad[i], num, 1e-3f);
  }
}

TEST(SoftmaxCrossEntropy, RejectsBadInputs) {
  SoftmaxCrossEntropy loss;
  EXPECT_THROW(loss.forward(Tensor({2, 3}), {0}), std::invalid_argument);
  EXPECT_THROW(loss.forward(Tensor({1, 3}), {7}), std::invalid_argument);
  SoftmaxCrossEntropy fresh;
  EXPECT_THROW(fresh.backward(), std::logic_error);
}

TEST(MseLoss, ValueAndGradient) {
  MseLoss loss;
  Tensor pred = Tensor::from_data(Shape({2, 2}), {1, 2, 3, 4});
  Tensor target = Tensor::from_data(Shape({2, 2}), {0, 2, 3, 2});
  // diffs: 1, 0, 0, 2 -> mean square = (1 + 4) / 4
  EXPECT_NEAR(loss.forward(pred, target), 1.25f, 1e-6f);
  const Tensor g = loss.backward();
  EXPECT_NEAR(g[0], 2.0f * 1.0f / 4.0f, 1e-6f);
  EXPECT_NEAR(g[3], 2.0f * 2.0f / 4.0f, 1e-6f);
}

TEST(MaeLoss, ValueAndGradient) {
  MaeLoss loss;
  Tensor pred = Tensor::from_data(Shape({4}), {1, 2, 3, 4});
  Tensor target = Tensor::from_data(Shape({4}), {2, 2, 2, 2});
  EXPECT_NEAR(loss.forward(pred, target), (1 + 0 + 1 + 2) / 4.0f, 1e-6f);
  const Tensor g = loss.backward();
  EXPECT_FLOAT_EQ(g[0], -0.25f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 0.25f);
  EXPECT_FLOAT_EQ(g[3], 0.25f);
}

TEST(RegressionLoss, BackwardBeforeForwardThrows) {
  MseLoss mse;
  EXPECT_THROW(mse.backward(), std::logic_error);
  MaeLoss mae;
  EXPECT_THROW(mae.backward(), std::logic_error);
}

// --- optimizers ---------------------------------------------------------

TEST(Optimizer, RejectsMismatchedParamsAndGrads) {
  Tensor p({2}), g({3});
  EXPECT_THROW(Adam({&p}, {&g}, 0.1f), std::invalid_argument);
  Tensor g2({2});
  EXPECT_NO_THROW(Adam({&p}, {&g2}, 0.1f));
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(p) = (p - 3)^2 with analytic gradient.
  Tensor p({1}, 0.0f);
  Tensor g({1}, 0.0f);
  Adam opt({&p}, {&g}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0f * (p[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p[0], 3.0f, 0.05f);
}

TEST(Adam, FirstStepHasUnitScaleRegardlessOfGradientMagnitude) {
  // Adam's bias correction makes the first update ~= lr * sign(grad).
  Tensor p1({1}, 0.0f), g1({1}, 1e-4f);
  Tensor p2({1}, 0.0f), g2({1}, 1e4f);
  Adam o1({&p1}, {&g1}, 0.01f);
  Adam o2({&p2}, {&g2}, 0.01f);
  o1.step();
  o2.step();
  EXPECT_NEAR(p1[0], -0.01f, 1e-3f);
  EXPECT_NEAR(p2[0], -0.01f, 1e-3f);
}

TEST(Optimizer, ZeroGradClearsBuffers) {
  Tensor p({2}, 1.0f);
  Tensor g({2}, 5.0f);
  Adam opt({&p}, {&g}, 0.1f);
  opt.zero_grad();
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
}

}  // namespace
}  // namespace adv::nn
