// Finite-difference gradient verification for every layer and loss.
//
// For a layer f we probe the scalar L(x) = sum_i w_i * f(x)_i with a fixed
// random weighting w, so d(L)/d(output) = w and one backward() call yields
// the analytic input gradient and (into a GradientSet) the parameter
// gradients. Each is compared against the central difference
// (L(x + eps e_j) - L(x - eps e_j)) / (2 eps).
//
// Step and tolerance are scaled from fp32 machine epsilon: the optimal
// central-difference step is ~cbrt(eps_f32) and the attainable accuracy is
// ~eps_f32^(2/3), so checks assert a relative error well above that floor
// but far below any real gradient bug (sign flips, missing terms, off-by-
// one window indexing all produce O(1) errors).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "attacks/target.hpp"
#include "magnet/detector.hpp"
#include "magnet/detector_grad.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pool.hpp"
#include "nn/structural.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace adv;

const float kEpsF32 = std::numeric_limits<float>::epsilon();
// ~4.9e-3: optimal central-difference step for fp32.
const float kStep = std::cbrt(kEpsF32);
// ~ 100 * eps_f32^(2/3) ~ 2.4e-3: two orders above the accuracy floor.
const float kTol = 100.0f * std::cbrt(kEpsF32) * std::cbrt(kEpsF32);

/// |analytic - numeric| relative to max(1, |analytic|, |numeric|).
float rel_err(float analytic, float numeric) {
  const float scale =
      std::max({1.0f, std::abs(analytic), std::abs(numeric)});
  return std::abs(analytic - numeric) / scale;
}

/// L(x) = sum_i w_i * f(x)_i, accumulated in double to keep the probe's
/// own roundoff below the finite-difference error.
double weighted_output(nn::Layer& layer, const Tensor& x, const Tensor& w) {
  const Tensor y = layer.forward(x, nn::Mode::Eval);
  EXPECT_EQ(y.numel(), w.numel());
  double L = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    L += static_cast<double>(w[i]) * static_cast<double>(y[i]);
  }
  return L;
}

/// Central-difference check of d(L)/d(x) and d(L)/d(theta) for one layer
/// on one input. `w` must match the layer's output shape element count.
void check_layer(nn::Layer& layer, const Tensor& input, Rng& rng) {
  Tensor y = layer.forward(input, nn::Mode::Eval);
  Tensor w = y;  // same shape
  fill_uniform(w, rng, -1.0f, 1.0f);

  // One analytic backward pass: input gradient out, parameter gradients
  // accumulated into a gradient set.
  nn::GradientSet analytic_params(layer);
  nn::TapeEntry tape_entry;
  layer.forward(input, nn::Mode::Eval, &tape_entry);
  const Tensor analytic_in =
      layer.backward(w, tape_entry, analytic_params.pointers());
  ASSERT_EQ(analytic_in.numel(), input.numel());

  // Input gradient.
  Tensor probe = input;
  for (std::size_t j = 0; j < input.numel(); ++j) {
    const float saved = probe[j];
    probe[j] = saved + kStep;
    const double lp = weighted_output(layer, probe, w);
    probe[j] = saved - kStep;
    const double lm = weighted_output(layer, probe, w);
    probe[j] = saved;
    const float numeric =
        static_cast<float>((lp - lm) / (2.0 * static_cast<double>(kStep)));
    ASSERT_LT(rel_err(analytic_in[j], numeric), kTol)
        << layer.name() << " d/d(input)[" << j << "]: analytic "
        << analytic_in[j] << " vs numeric " << numeric;
  }

  // Parameter gradients (weights and biases), if any.
  const std::vector<Tensor*> params = layer.parameters();
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& theta = *params[p];
    for (std::size_t j = 0; j < theta.numel(); ++j) {
      const float saved = theta[j];
      theta[j] = saved + kStep;
      const double lp = weighted_output(layer, input, w);
      theta[j] = saved - kStep;
      const double lm = weighted_output(layer, input, w);
      theta[j] = saved;
      const float numeric =
          static_cast<float>((lp - lm) / (2.0 * static_cast<double>(kStep)));
      ASSERT_LT(rel_err(analytic_params[p][j], numeric), kTol)
          << layer.name() << " d/d(param " << p << ")[" << j
          << "]: analytic " << analytic_params[p][j] << " vs numeric "
          << numeric;
    }
  }
}

/// Input whose element values stay > 2*step away from each other, so a
/// +-step probe can never change which element wins a max-pool window.
Tensor separated_input(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  std::vector<std::size_t> order(t.numel());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_u64() % i]);
  }
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[order[i]] = -1.0f + 0.05f * static_cast<float>(i);
  }
  return t;
}

/// Input bounded away from 0 (the ReLU kink) by more than the probe step.
Tensor nudged_input(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const float mag = rng.uniform_f(0.1f, 1.0f);
    t[i] = (rng.uniform() < 0.5 ? -mag : mag);
  }
  return t;
}

TEST(GradCheck, Linear) {
  Rng rng(11);
  nn::Linear layer(6, 4, rng);
  Tensor x({3, 6});
  fill_uniform(x, rng, -1.0f, 1.0f);
  check_layer(layer, x, rng);
}

struct ConvCase {
  nn::Conv2dConfig cfg;
  Shape input_shape;
};

class GradCheckConv : public ::testing::TestWithParam<ConvCase> {};

TEST_P(GradCheckConv, InputWeightAndBiasGradients) {
  const ConvCase& c = GetParam();
  Rng rng(13);
  nn::Conv2d layer(c.cfg, rng);
  Tensor x(c.input_shape);
  fill_uniform(x, rng, -1.0f, 1.0f);
  check_layer(layer, x, rng);
}

// Same cases with the direct-convolution path disabled, so the im2col
// fallback keeps its own gradient coverage even on shapes where the
// direct path is the default.
TEST_P(GradCheckConv, InputWeightAndBiasGradientsIm2colForced) {
  const ConvCase& c = GetParam();
  Rng rng(13);
  nn::Conv2d layer(c.cfg, rng);
  layer.set_force_im2col(true);
  Tensor x(c.input_shape);
  fill_uniform(x, rng, -1.0f, 1.0f);
  check_layer(layer, x, rng);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GradCheckConv,
    ::testing::Values(
        // 3x3 "same" (stride 1, padding 1), multi-sample batch.
        ConvCase{{1, 2, 3, 1, 1}, {2, 1, 5, 5}},
        // Stride 2 with padding: (6 + 2 - 3) / 2 + 1 = 3.
        ConvCase{{2, 3, 3, 2, 1}, {1, 2, 6, 6}},
        // Even 2x2 kernel, no padding (valid): 4 -> 3.
        ConvCase{{1, 2, 2, 1, 0}, {1, 1, 4, 4}},
        // Valid 3x3, multi-channel in and out: 5 -> 3.
        ConvCase{{2, 2, 3, 1, 0}, {1, 2, 5, 5}}));

TEST(GradCheck, AvgPool2d) {
  Rng rng(17);
  nn::AvgPool2d layer(2);
  Tensor x({2, 2, 4, 4});
  fill_uniform(x, rng, -1.0f, 1.0f);
  check_layer(layer, x, rng);
}

TEST(GradCheck, MaxPool2d) {
  Rng rng(19);
  nn::MaxPool2d layer(2);
  // Separated values: the argmax inside each window is stable under the
  // +-step probes, so the subgradient is exact there.
  Tensor x = separated_input({1, 2, 4, 4}, rng);
  check_layer(layer, x, rng);
}

TEST(GradCheck, Upsample2d) {
  Rng rng(23);
  nn::Upsample2d layer(2);
  Tensor x({1, 2, 3, 3});
  fill_uniform(x, rng, -1.0f, 1.0f);
  check_layer(layer, x, rng);
}

TEST(GradCheck, Flatten) {
  Rng rng(29);
  nn::Flatten layer;
  Tensor x({2, 2, 3, 3});
  fill_uniform(x, rng, -1.0f, 1.0f);
  check_layer(layer, x, rng);
}

TEST(GradCheck, ReLU) {
  Rng rng(37);
  nn::ReLU layer;
  // Values bounded away from the kink at 0 by more than the probe step.
  Tensor x = nudged_input({2, 2, 3, 3}, rng);
  check_layer(layer, x, rng);
}

TEST(GradCheck, Sigmoid) {
  Rng rng(43);
  nn::Sigmoid layer;
  Tensor x({2, 10});
  fill_uniform(x, rng, -2.0f, 2.0f);
  check_layer(layer, x, rng);
}

TEST(GradCheck, Tanh) {
  Rng rng(47);
  nn::Tanh layer;
  Tensor x({2, 10});
  fill_uniform(x, rng, -2.0f, 2.0f);
  check_layer(layer, x, rng);
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(53);
  Tensor logits({4, 5});
  fill_uniform(logits, rng, -2.0f, 2.0f);
  const std::vector<int> labels = {0, 3, 4, 2};

  nn::SoftmaxCrossEntropy loss;
  loss.forward(logits, labels);
  const Tensor analytic = loss.backward();
  ASSERT_EQ(analytic.numel(), logits.numel());

  nn::SoftmaxCrossEntropy probe_loss;
  for (std::size_t j = 0; j < logits.numel(); ++j) {
    const float saved = logits[j];
    logits[j] = saved + kStep;
    const double lp =
        static_cast<double>(probe_loss.forward(logits, labels));
    logits[j] = saved - kStep;
    const double lm =
        static_cast<double>(probe_loss.forward(logits, labels));
    logits[j] = saved;
    const float numeric =
        static_cast<float>((lp - lm) / (2.0 * static_cast<double>(kStep)));
    ASSERT_LT(rel_err(analytic[j], numeric), kTol)
        << "softmax-CE d/d(logit)[" << j << "]";
  }
}

/// Shared central-difference driver for the element-wise regression
/// losses; perturbs `pred` and compares against backward().
void check_regression_loss(nn::RegressionLoss& loss, Tensor pred,
                           const Tensor& target, const char* label) {
  loss.forward(pred, target);
  const Tensor analytic = loss.backward();
  ASSERT_EQ(analytic.numel(), pred.numel());
  for (std::size_t j = 0; j < pred.numel(); ++j) {
    const float saved = pred[j];
    pred[j] = saved + kStep;
    const double lp = static_cast<double>(loss.forward(pred, target));
    pred[j] = saved - kStep;
    const double lm = static_cast<double>(loss.forward(pred, target));
    pred[j] = saved;
    const float numeric =
        static_cast<float>((lp - lm) / (2.0 * static_cast<double>(kStep)));
    ASSERT_LT(rel_err(analytic[j], numeric), kTol)
        << label << " d/d(pred)[" << j << "]";
  }
}

TEST(GradCheck, MseLoss) {
  Rng rng(59);
  Tensor pred({2, 1, 3, 3}), target({2, 1, 3, 3});
  fill_uniform(pred, rng, 0.0f, 1.0f);
  fill_uniform(target, rng, 0.0f, 1.0f);
  nn::MseLoss loss;
  check_regression_loss(loss, pred, target, "MSE");
}

TEST(GradCheck, MaeLoss) {
  Rng rng(61);
  Tensor pred({2, 1, 3, 3}), target({2, 1, 3, 3});
  fill_uniform(target, rng, 0.0f, 1.0f);
  // |pred - target| > 2*step everywhere: the probes never cross the |.|
  // kink, so the subgradient sign(pred - target)/N is exact.
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const float off = rng.uniform_f(0.1f, 0.5f);
    pred[i] = target[i] + (rng.uniform() < 0.5 ? -off : off);
  }
  nn::MaeLoss loss;
  check_regression_loss(loss, pred, target, "MAE");
}

// --- composed attack targets ------------------------------------------
//
// The gray-box threat model differentiates through classifier(AE(x));
// AttackTarget::input_grad chains Sequential backwards across the model
// boundary. Verify the whole composition against central differences:
// L(x) = sum_i w_i * logits(x)_i, analytic d(L)/d(x) =
// target.input_grad(x, w) after one Eval forward.

/// Small smooth AE (Tanh, no pooling kinks) over [N,1,2,2] inputs.
nn::Sequential tiny_autoencoder(Rng& rng) {
  nn::Sequential ae;
  ae.emplace<nn::Flatten>();
  ae.emplace<nn::Linear>(4, 6, rng);
  ae.emplace<nn::Tanh>();
  ae.emplace<nn::Linear>(6, 4, rng);
  ae.emplace<nn::Sigmoid>();
  return ae;
}

nn::Sequential tiny_classifier(Rng& rng) {
  nn::Sequential clf;
  clf.emplace<nn::Flatten>();
  clf.emplace<nn::Linear>(4, 5, rng);
  clf.emplace<nn::Tanh>();
  clf.emplace<nn::Linear>(5, 3, rng);
  return clf;
}

void check_target_input_grad(attacks::AttackTarget& target, const Tensor& x,
                             Rng& rng, const char* label) {
  const Tensor y = target.logits(x, nn::Mode::Eval);
  Tensor w = y;  // same shape
  fill_uniform(w, rng, -1.0f, 1.0f);
  const Tensor analytic = target.input_grad(x, w);
  ASSERT_EQ(analytic.numel(), x.numel());

  Tensor probe = x;
  for (std::size_t j = 0; j < x.numel(); ++j) {
    const float saved = probe[j];
    const auto weighted = [&] {
      const Tensor z = target.logits(probe, nn::Mode::Infer);
      double L = 0.0;
      for (std::size_t i = 0; i < z.numel(); ++i) {
        L += static_cast<double>(w[i]) * static_cast<double>(z[i]);
      }
      return L;
    };
    probe[j] = saved + kStep;
    const double lp = weighted();
    probe[j] = saved - kStep;
    const double lm = weighted();
    probe[j] = saved;
    const float numeric =
        static_cast<float>((lp - lm) / (2.0 * static_cast<double>(kStep)));
    ASSERT_LT(rel_err(analytic[j], numeric), kTol)
        << label << " d/d(input)[" << j << "]: analytic " << analytic[j]
        << " vs numeric " << numeric;
  }
}

TEST(GradCheck, GrayBoxTargetComposedGradient) {
  Rng rng(67);
  nn::Sequential ae = tiny_autoencoder(rng);
  nn::Sequential clf = tiny_classifier(rng);
  attacks::GrayBoxTarget target(ae, clf);
  Tensor x({2, 1, 2, 2});
  fill_uniform(x, rng, 0.1f, 0.9f);
  check_target_input_grad(target, x, rng, "GrayBoxTarget");
}

TEST(GradCheck, ObliviousTargetMatchesBareModelGradient) {
  Rng rng(71);
  nn::Sequential clf = tiny_classifier(rng);
  attacks::ObliviousTarget target(clf);
  Tensor x({2, 4});
  fill_uniform(x, rng, 0.1f, 0.9f);
  check_target_input_grad(target, x, rng, "ObliviousTarget");
}

// --- detector-evasion aux terms ----------------------------------------
//
// The detector-aware objective adds hinged detector overshoots; their
// analytic input gradients (magnet/detector_grad) chain through the AE
// (reconstruction error) or both classifier branches of the JSD. Probe
// L(x) = sum_i w_i * loss(x)_i against the analytic input_grad(x, w),
// picking the threshold at half the minimum clean score so every row's
// hinge is active and no +-step probe can cross it.

void check_aux_term_grad(attacks::AuxObjective& term, const Tensor& x,
                         const std::vector<float>& w, const char* label) {
  const Tensor analytic = term.input_grad(x, w);
  ASSERT_EQ(analytic.numel(), x.numel());
  Tensor probe = x;
  for (std::size_t j = 0; j < x.numel(); ++j) {
    const float saved = probe[j];
    const auto weighted = [&] {
      const std::vector<float> l = term.loss(probe);
      double L = 0.0;
      for (std::size_t i = 0; i < l.size(); ++i) {
        L += static_cast<double>(w[i]) * static_cast<double>(l[i]);
      }
      return L;
    };
    probe[j] = saved + kStep;
    const double lp = weighted();
    probe[j] = saved - kStep;
    const double lm = weighted();
    probe[j] = saved;
    const float numeric =
        static_cast<float>((lp - lm) / (2.0 * static_cast<double>(kStep)));
    ASSERT_LT(rel_err(analytic[j], numeric), kTol)
        << label << " d/d(input)[" << j << "]: analytic " << analytic[j]
        << " vs numeric " << numeric;
  }
}

TEST(GradCheck, ReconErrorTermGradient) {
  Rng rng(73);
  auto ae = std::make_shared<nn::Sequential>(tiny_autoencoder(rng));
  Tensor x({2, 1, 2, 2});
  fill_uniform(x, rng, 0.1f, 0.9f);

  // p = 2 keeps the score smooth (p = 1 has |.| kinks a probe could
  // cross). Threshold below every row's score => hinge active everywhere.
  magnet::ReconstructionDetector det(ae, 2);
  const std::vector<float> scores = det.scores(x);
  const float thr =
      0.5f * *std::min_element(scores.begin(), scores.end());
  ASSERT_GT(thr, 0.0f);
  magnet::ReconErrorTerm term(ae, 2, thr, "recon-l2");
  check_aux_term_grad(term, x, {0.7f, -1.3f}, "ReconErrorTerm");
}

TEST(GradCheck, JsdEvasionTermGradient) {
  Rng rng(79);
  auto ae = std::make_shared<nn::Sequential>(tiny_autoencoder(rng));
  auto clf = std::make_shared<nn::Sequential>(tiny_classifier(rng));
  Tensor x({2, 1, 2, 2});
  fill_uniform(x, rng, 0.1f, 0.9f);

  const float temperature = 10.0f;
  magnet::JsdDetector det(ae, clf, temperature);
  const std::vector<float> scores = det.scores(x);
  const float thr =
      0.5f * *std::min_element(scores.begin(), scores.end());
  ASSERT_GT(thr, 0.0f);
  magnet::JsdEvasionTerm term(ae, clf, temperature, thr, "jsd");
  check_aux_term_grad(term, x, {1.0f, 0.5f}, "JsdEvasionTerm");
}

}  // namespace
