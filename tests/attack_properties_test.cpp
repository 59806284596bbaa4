// Property-based tests of the attack machinery across random seeds and
// configurations (TEST_P sweeps). These pin down the invariants the
// evaluation relies on: box feasibility, confidence satisfaction,
// monotonicity in kappa/epsilon, and shrinkage-operator contraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "attacks/cw.hpp"
#include "attacks/ead.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/fused.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "nn/structural.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {
namespace {

/// Random small MLP classifier over a 9-pixel image, 3 classes.
nn::Sequential random_mlp(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential m;
  m.emplace<nn::Flatten>();
  m.emplace<nn::Linear>(9, 12, rng);
  m.emplace<nn::Tanh>();
  m.emplace<nn::Linear>(12, 3, rng);
  // Scale the head so logits have an attackable range.
  scale_inplace(*m.parameters()[2], 6.0f);
  return m;
}

/// Batch of images with known (argmax) labels under the model.
std::pair<Tensor, std::vector<int>> labeled_batch(nn::Sequential& m,
                                                  std::uint64_t seed,
                                                  std::size_t n) {
  Rng rng(seed);
  Tensor x({n, 1, 3, 3});
  fill_uniform(x, rng, 0.1f, 0.9f);
  const Tensor logits = m.forward(x, nn::Mode::Eval);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(argmax_row(logits, i));
  }
  return {x, labels};
}

class AttackProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttackProperties, EadRespectsBoxAndConfidence) {
  nn::Sequential m = random_mlp(GetParam());
  auto [x, labels] = labeled_batch(m, GetParam() + 1, 6);
  EadConfig cfg;
  cfg.beta = 0.02f;
  cfg.kappa = 1.0f;
  cfg.iterations = 80;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 1.0f;
  const AttackResult r = ead_attack(m, x, labels, cfg);
  EXPECT_GE(min_value(r.adversarial), 0.0f);
  EXPECT_LE(max_value(r.adversarial), 1.0f);
  ObliviousTarget target(m);
  const HingeEval e =
      eval_untargeted_hinge(target, r.adversarial, labels, cfg.kappa);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (r.success[i]) {
      EXPECT_GE(e.margin[i], cfg.kappa - 1e-3f) << "row " << i;
      EXPECT_GT(r.l2[i], 0.0f);
    } else {
      // Failed rows must be the untouched natural image.
      EXPECT_FLOAT_EQ(r.l1[i], 0.0f);
    }
  }
}

TEST_P(AttackProperties, DistortionGrowsWithConfidence) {
  nn::Sequential m = random_mlp(GetParam() + 11);
  auto [x, labels] = labeled_batch(m, GetParam() + 12, 8);
  auto mean_l2_at = [&](float kappa) {
    CwL2Config cfg;
    cfg.kappa = kappa;
    cfg.iterations = 80;
    cfg.binary_search_steps = 3;
    cfg.initial_c = 1.0f;
    const AttackResult r = cw_l2_attack(m, x, labels, cfg);
    return r.success_count() ? r.mean_l2_over_success() : -1.0f;
  };
  const float lo = mean_l2_at(0.2f);
  const float hi = mean_l2_at(3.0f);
  if (lo >= 0.0f && hi >= 0.0f) {
    EXPECT_GE(hi, lo - 1e-3f);
  }
}

TEST_P(AttackProperties, EadL1RuleNeverExceedsEnRuleL1) {
  nn::Sequential m = random_mlp(GetParam() + 21);
  auto [x, labels] = labeled_batch(m, GetParam() + 22, 6);
  EadConfig cfg;
  cfg.beta = 0.03f;
  cfg.kappa = 0.5f;
  cfg.iterations = 80;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 1.0f;
  const DecisionRule rules[2] = {DecisionRule::EN, DecisionRule::L1};
  const auto rs = ead_attack_multi(m, x, labels, cfg, rules);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    ASSERT_EQ(rs[0].success[i], rs[1].success[i]);
    if (rs[0].success[i]) {
      EXPECT_LE(rs[1].l1[i], rs[0].l1[i] + 1e-4f) << "row " << i;
    }
  }
}

TEST_P(AttackProperties, FgsmDistortionBoundedByEpsilon) {
  nn::Sequential m = random_mlp(GetParam() + 31);
  auto [x, labels] = labeled_batch(m, GetParam() + 32, 8);
  for (const float eps : {0.05f, 0.2f}) {
    FgsmConfig cfg;
    cfg.epsilon = eps;
    cfg.iterations = 5;
    const AttackResult r = fgsm_attack(m, x, labels, cfg);
    for (const float d : r.linf) EXPECT_LE(d, eps + 1e-5f);
  }
}

TEST_P(AttackProperties, ShrinkageIsContractionTowardNatural) {
  // |S_beta(z) - x0| <= |clip(z) - x0| elementwise: the shrinkage never
  // moves a pixel further from the natural image than plain projection.
  Rng rng(GetParam() + 41);
  Tensor z({40}), x0({40});
  fill_uniform(z, rng, -0.3f, 1.3f);
  fill_uniform(x0, rng, 0.0f, 1.0f);
  Tensor shrunk, clipped;
  shrink_project(z, x0, 0.07f, shrunk);
  shrink_project(z, x0, 0.0f, clipped);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_LE(std::fabs(shrunk[i] - x0[i]),
              std::fabs(clipped[i] - x0[i]) + 1e-6f);
    EXPECT_GE(shrunk[i], 0.0f);
    EXPECT_LE(shrunk[i], 1.0f);
  }
}

/// fused_ista_step against the literal former code path, one sweep per
/// pass: regularizer-gradient add, axpy gradient step, shrink_project.
void expect_ista_step_matches_sweeps(const Tensor& y, const Tensor& grad,
                                     const Tensor& x0, float lr, float beta) {
  Tensor g2 = grad;
  for (std::size_t i = 0; i < g2.numel(); ++i) {
    g2[i] += 2.0f * (y[i] - x0[i]);
  }
  Tensor z = y;
  axpy_inplace(z, -lr, g2);
  Tensor want;
  shrink_project(z, x0, beta, want);

  Tensor got;
  fused_ista_step(y, grad, x0, lr, beta, got);
  ASSERT_EQ(got.numel(), want.numel());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.numel() * sizeof(float)))
      << "lr " << lr << ", beta " << beta << ", length " << y.numel();
}

TEST_P(AttackProperties, FusedIstaStepMatchesSeparateSweepsBitwise) {
  // fused_ista_step must reproduce the former three-sweep update bit for
  // bit (the attacks/fused.hpp contract EAD's identity gates assume),
  // edge cases included: it picks between the shrinkage arms with a
  // select, not a branch.
  Rng rng(GetParam() + 71);
  Tensor y({3, 17}), grad({3, 17}), x0({3, 17});
  fill_uniform(y, rng, -0.3f, 1.3f);
  fill_uniform(grad, rng, -2.0f, 2.0f);
  fill_uniform(x0, rng, 0.0f, 1.0f);
  expect_ista_step_matches_sweeps(y, grad, x0, 0.013f, 0.04f);
  expect_ista_step_matches_sweeps(y, grad, x0, 0.013f, 0.0f);  // C&W

  // Every (y, grad, x0) triple of a grid with ±0 in all three, NaN and
  // ±inf in grad, and y and large gradients that put z outside [0, 1].
  // 9 * 10 * 5 = 450 elements, not a multiple of 16: the vector tail runs.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> ys = {0.0f,  -0.0f, 0.25f, 0.5f, 0.75f,
                                 1.0f,  0.3f,  -0.4f, 1.6f};
  const std::vector<float> gs = {0.0f,  -0.0f, 0.7f, -3.0f, 40.0f,
                                 -40.0f, nan,  -nan, inf,   -inf};
  const std::vector<float> x0s = {0.0f, -0.0f, 0.25f, 0.5f, 1.0f};
  const std::size_t n = ys.size() * gs.size() * x0s.size();
  Tensor gy({n}), gg({n}), gx0({n});
  std::size_t k = 0;
  for (const float a : ys) {
    for (const float b : gs) {
      for (const float c : x0s) {
        gy[k] = a;
        gg[k] = b;
        gx0[k] = c;
        ++k;
      }
    }
  }
  // lr = 0 keeps z = y for a finite gradient, so with beta = 0.25 the
  // grid holds diff = z - x0 at exactly +beta and -beta (0.75 - 0.5,
  // 0.25 - 0.5, ...), and with beta = 0 at exactly 0.
  for (const auto& [lr, beta] : {std::pair{0.013f, 0.04f}, {0.013f, 0.0f},
                                 {0.0f, 0.25f}, {0.0f, 0.0f}, {0.5f, 0.1f}}) {
    expect_ista_step_matches_sweeps(gy, gg, gx0, lr, beta);
  }
}

TEST_P(AttackProperties, FusedSignStepMatchesSeparateSweepsBitwise) {
  // fused_sign_step must match the former separate sign-step + two-clamp
  // loop bitwise, including the moved/fixed-point flag, across iterated
  // application until the row saturates.
  Rng rng(GetParam() + 81);
  const float step = 0.03f;
  const float eps = 0.07f;
  Tensor x0({29}), grad({29});
  fill_uniform(x0, rng, 0.0f, 1.0f);
  fill_uniform(grad, rng, -1.0f, 1.0f);
  grad[3] = 0.0f;  // exercise the zero-gradient (no-step) branch
  grad[7] = -0.0f;
  grad[11] = std::numeric_limits<float>::quiet_NaN();  // sign(NaN) = 0
  grad[12] = -std::numeric_limits<float>::quiet_NaN();
  x0[5] = 0.0f;  // on the box edge: the eps-ball crosses it
  x0[6] = 1.0f;
  Tensor xa = x0;
  Tensor xb = x0;
  for (int k = 0; k < 10; ++k) {
    bool moved_want = false;
    for (std::size_t d = 0; d < xb.numel(); ++d) {
      float v = xb[d] + step * (grad[d] > 0.0f   ? 1.0f
                                : grad[d] < 0.0f ? -1.0f
                                                 : 0.0f);
      v = std::clamp(v, x0[d] - eps, x0[d] + eps);
      v = std::clamp(v, 0.0f, 1.0f);
      if (v != xb[d]) moved_want = true;
      xb[d] = v;
    }
    const bool moved = fused_sign_step(xa.data(), grad.data(), x0.data(),
                                       xa.numel(), step, eps);
    ASSERT_EQ(moved, moved_want) << "iteration " << k;
    ASSERT_EQ(0, std::memcmp(xa.data(), xb.data(),
                             xa.numel() * sizeof(float)))
        << "iteration " << k;
    if (!moved) break;  // fixed point: the attack would retire this row
  }
}

TEST_P(AttackProperties, LargerBetaNeverIncreasesSupport) {
  // Across random problems, the count of touched pixels under beta=0.08
  // must not exceed the count under beta=0.005 (sparsity induction).
  nn::Sequential m = random_mlp(GetParam() + 51);
  auto [x, labels] = labeled_batch(m, GetParam() + 52, 4);
  auto support = [&](float beta) {
    EadConfig cfg;
    cfg.beta = beta;
    cfg.kappa = 0.5f;
    cfg.iterations = 100;
    cfg.binary_search_steps = 3;
    cfg.initial_c = 1.0f;
    cfg.rule = DecisionRule::L1;
    const AttackResult r = ead_attack(m, x, labels, cfg);
    std::size_t touched = 0, successes = 0;
    const std::size_t row = x.numel() / x.dim(0);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (!r.success[i]) continue;
      ++successes;
      for (std::size_t j = 0; j < row; ++j) {
        if (std::fabs(r.adversarial[i * row + j] - x[i * row + j]) > 1e-4f) {
          ++touched;
        }
      }
    }
    return successes ? static_cast<double>(touched) / successes : -1.0;
  };
  const double dense = support(0.005f);
  const double sparse = support(0.08f);
  if (dense >= 0.0 && sparse >= 0.0) {
    EXPECT_LE(sparse, dense + 0.51);  // allow ties within half a pixel
  }
}

TEST_P(AttackProperties, IstaStepNeverIncreasesElasticNetObjective) {
  // One ISTA step on the attack's distortion objective
  //   E(v) = ||v - x0||_2^2 + beta * ||v - x0||_1   over the [0,1] box
  // is v+ = shrink_project(y - lr * 2(y - x0), x0, lr * beta): a gradient
  // step on the smooth part followed by the prox of lr * beta * ||.||_1
  // (which shrink_project's threshold argument realizes). For
  // lr <= 1/L = 1/2 the proximal-gradient majorization guarantees
  // E(v+) <= E(v) — the descent property eq. (4)'s loop relies on.
  Rng rng(GetParam() + 61);
  const float beta = 0.05f;
  const float lr = 0.25f;
  Tensor x0({30}), y({30});
  fill_uniform(x0, rng, 0.0f, 1.0f);
  fill_uniform(y, rng, -0.2f, 1.2f);
  shrink_project(y, x0, 0.0f, y);  // start feasible (clip into the box)

  auto objective = [&](const Tensor& v) {
    double e = 0.0;
    for (std::size_t i = 0; i < v.numel(); ++i) {
      const double d = static_cast<double>(v[i]) - static_cast<double>(x0[i]);
      e += d * d + static_cast<double>(beta) * std::fabs(d);
    }
    return e;
  };

  Tensor z = y, next;
  double prev = objective(y);
  for (int step = 0; step < 10; ++step) {
    Tensor grad_point = z;
    for (std::size_t i = 0; i < z.numel(); ++i) {
      grad_point[i] = z[i] - lr * 2.0f * (z[i] - x0[i]);
    }
    shrink_project(grad_point, x0, lr * beta, next);
    const double cur = objective(next);
    EXPECT_LE(cur, prev + 1e-7) << "step " << step;
    prev = cur;
    std::swap(z, next);
  }
}

TEST_P(AttackProperties, BetaZeroEadReducesToCwL2) {
  // cw_l2_attack is defined as EAD with beta = 0, the L2 decision rule
  // and plain ISTA; an explicitly configured beta = 0 EAD run must
  // reproduce it bit for bit (same optimizer trajectory, same examples).
  nn::Sequential m = random_mlp(GetParam() + 71);
  auto [x, labels] = labeled_batch(m, GetParam() + 72, 6);

  CwL2Config cw;
  cw.kappa = 0.5f;
  cw.iterations = 60;
  cw.binary_search_steps = 3;
  cw.initial_c = 1.0f;
  const AttackResult rc = cw_l2_attack(m, x, labels, cw);

  EadConfig ead;
  ead.beta = 0.0f;
  ead.kappa = cw.kappa;
  ead.iterations = cw.iterations;
  ead.binary_search_steps = cw.binary_search_steps;
  ead.initial_c = cw.initial_c;
  ead.learning_rate = cw.learning_rate;
  ead.rule = DecisionRule::L2;
  const AttackResult re = ead_attack(m, x, labels, ead);

  ASSERT_EQ(rc.success, re.success);
  ASSERT_EQ(rc.adversarial.numel(), re.adversarial.numel());
  for (std::size_t i = 0; i < rc.adversarial.numel(); ++i) {
    ASSERT_EQ(rc.adversarial[i], re.adversarial[i]) << "pixel " << i;
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(rc.l1[i], re.l1[i]);
    EXPECT_EQ(rc.l2[i], re.l2[i]);
    EXPECT_EQ(rc.linf[i], re.linf[i]);
  }
}

TEST_P(AttackProperties, AdversarialExamplesSatisfyExactBoxConstraints) {
  // Every crafting path must emit pixels exactly inside [0, 1] — not
  // within a tolerance: downstream defenses assume valid images, and the
  // projection/clipping operators are exact by construction.
  nn::Sequential m = random_mlp(GetParam() + 81);
  auto [x, labels] = labeled_batch(m, GetParam() + 82, 5);

  auto expect_in_box = [](const AttackResult& r, const char* who) {
    for (std::size_t i = 0; i < r.adversarial.numel(); ++i) {
      ASSERT_GE(r.adversarial[i], 0.0f) << who << " pixel " << i;
      ASSERT_LE(r.adversarial[i], 1.0f) << who << " pixel " << i;
    }
  };

  EadConfig ecfg;
  ecfg.beta = 0.05f;
  ecfg.kappa = 0.5f;
  ecfg.iterations = 40;
  ecfg.binary_search_steps = 2;
  ecfg.initial_c = 1.0f;
  expect_in_box(ead_attack(m, x, labels, ecfg), "ead");

  FgsmConfig fcfg;
  fcfg.epsilon = 0.3f;  // large enough that raw steps would leave the box
  fcfg.iterations = 5;
  expect_in_box(fgsm_attack(m, x, labels, fcfg), "ifgsm");

  // shrink_project itself clamps exactly even from far outside the box.
  Rng rng(GetParam() + 83);
  Tensor z({25}), x0({25}), out;
  fill_uniform(z, rng, -5.0f, 5.0f);
  fill_uniform(x0, rng, 0.0f, 1.0f);
  shrink_project(z, x0, 0.1f, out);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    ASSERT_GE(out[i], 0.0f);
    ASSERT_LE(out[i], 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttackProperties,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace adv::attacks
