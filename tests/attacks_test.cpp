// Attack tests: shrinkage operator, hinge loss machinery, and the full
// C&W / EAD / FGSM / DeepFool attacks against small analyzable models,
// and the shared result tail FGSM and DeepFool end in.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attacks/common.hpp"
#include "attacks/cw.hpp"
#include "attacks/deepfool.hpp"
#include "attacks/ead.hpp"
#include "attacks/fgsm.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "nn/structural.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {
namespace {

/// Linear 2-class model over a 4-pixel image: logit_0 = +s*(x0+x1),
/// logit_1 = +s*(x2+x3). Decision boundary: x0+x1 vs x2+x3.
nn::Sequential linear_model(float s = 8.0f) {
  Rng rng(1);
  nn::Sequential m;
  m.emplace<nn::Flatten>();
  auto& lin = m.emplace<nn::Linear>(4, 2, rng);
  *lin.parameters()[0] =
      Tensor::from_data(Shape({4, 2}), {s, 0, s, 0, 0, s, 0, s});
  lin.parameters()[1]->fill(0.0f);
  return m;
}

Tensor class0_image() {
  // Strongly class 0: x0+x1 = 1.6, x2+x3 = 0.2.
  return Tensor::from_data(Shape({1, 1, 2, 2}), {0.8f, 0.8f, 0.1f, 0.1f});
}

// --- shrink_project (paper eq. (5)) ---------------------------------------

TEST(ShrinkProject, ThreeRegimes) {
  const Tensor x0 = Tensor::from_data(Shape({3}), {0.5f, 0.5f, 0.5f});
  const Tensor z = Tensor::from_data(Shape({3}), {0.75f, 0.55f, 0.25f});
  Tensor out;
  shrink_project(z, x0, 0.1f, out);
  EXPECT_FLOAT_EQ(out[0], 0.65f);  // diff 0.25 > beta: z - beta
  EXPECT_FLOAT_EQ(out[1], 0.5f);   // |diff| <= beta: keep x0
  EXPECT_FLOAT_EQ(out[2], 0.35f);  // diff -0.25 < -beta: z + beta
}

TEST(ShrinkProject, ProjectsIntoUnitBox) {
  const Tensor x0 = Tensor::from_data(Shape({2}), {0.5f, 0.5f});
  const Tensor z = Tensor::from_data(Shape({2}), {1.4f, -0.4f});
  Tensor out;
  shrink_project(z, x0, 0.1f, out);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(ShrinkProject, BetaZeroIsPlainBoxClip) {
  const Tensor x0 = Tensor::from_data(Shape({4}), {0.5f, 0.5f, 0.5f, 0.5f});
  const Tensor z = Tensor::from_data(Shape({4}), {0.7f, 0.2f, 1.5f, -0.5f});
  Tensor out;
  shrink_project(z, x0, 0.0f, out);
  EXPECT_FLOAT_EQ(out[0], 0.7f);
  EXPECT_FLOAT_EQ(out[1], 0.2f);
  EXPECT_FLOAT_EQ(out[2], 1.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(ShrinkProject, ShapeMismatchThrows) {
  Tensor out;
  EXPECT_THROW(shrink_project(Tensor({2}), Tensor({3}), 0.1f, out),
               std::invalid_argument);
}

TEST(ShrinkProject, IdempotentOnFixedPoint) {
  // Points already within beta of x0 collapse to x0 and stay there.
  const Tensor x0 = Tensor::from_data(Shape({2}), {0.3f, 0.6f});
  const Tensor z = Tensor::from_data(Shape({2}), {0.35f, 0.58f});
  Tensor once, twice;
  shrink_project(z, x0, 0.1f, once);
  shrink_project(once, x0, 0.1f, twice);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_FLOAT_EQ(once[i], twice[i]);
}

// --- hinge machinery --------------------------------------------------------

TEST(HingeEval, MarginAndLossMatchManual) {
  nn::Sequential m = linear_model(8.0f);
  ObliviousTarget target(m);
  const Tensor x = class0_image();
  // logit0 = 8*1.6 = 12.8, logit1 = 8*0.2 = 1.6; margin = 1.6 - 12.8 = -11.2
  const HingeEval e = eval_untargeted_hinge(target, x, {0}, 5.0f);
  EXPECT_NEAR(e.margin[0], -11.2f, 1e-4f);
  // f = max(-margin, -kappa) = max(11.2, -5) = 11.2
  EXPECT_NEAR(e.f[0], 11.2f, 1e-4f);
}

TEST(HingeEval, SaturatesAtMinusKappa) {
  nn::Sequential m = linear_model(8.0f);
  ObliviousTarget target(m);
  // Strongly class-1 input evaluated with label 0: margin large positive.
  const Tensor x =
      Tensor::from_data(Shape({1, 1, 2, 2}), {0.0f, 0.0f, 0.9f, 0.9f});
  const HingeEval e = eval_untargeted_hinge(target, x, {0}, 5.0f);
  EXPECT_GT(e.margin[0], 5.0f);
  EXPECT_FLOAT_EQ(e.f[0], -5.0f);
}

TEST(HingeGradient, PointsTowardOtherClass) {
  nn::Sequential m = linear_model(8.0f);
  ObliviousTarget target(m);
  const Tensor x = class0_image();
  const HingeEval e = eval_untargeted_hinge(target, x, {0}, 5.0f);
  const Tensor g = hinge_input_gradient(target, x, e, {0}, 5.0f, {1.0f});
  // d f / d x = d(logit0 - logit1)/dx = s*(1,1,-1,-1).
  EXPECT_NEAR(g[0], 8.0f, 1e-4f);
  EXPECT_NEAR(g[1], 8.0f, 1e-4f);
  EXPECT_NEAR(g[2], -8.0f, 1e-4f);
  EXPECT_NEAR(g[3], -8.0f, 1e-4f);
}

TEST(HingeGradient, ZeroWhenHingeInactive) {
  nn::Sequential m = linear_model(8.0f);
  ObliviousTarget target(m);
  const Tensor x =
      Tensor::from_data(Shape({1, 1, 2, 2}), {0.0f, 0.0f, 0.9f, 0.9f});
  const HingeEval e = eval_untargeted_hinge(target, x, {0}, 5.0f);
  const Tensor g = hinge_input_gradient(target, x, e, {0}, 5.0f, {1.0f});
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g[i], 0.0f);
}

TEST(AttackResult, SuccessStatsAndDistortionMeans) {
  AttackResult r;
  r.adversarial = Tensor({3, 1, 1, 2});
  r.success = {true, false, true};
  r.l1 = {1.0f, 99.0f, 3.0f};
  r.l2 = {0.5f, 99.0f, 1.5f};
  EXPECT_EQ(r.success_count(), 2u);
  EXPECT_FLOAT_EQ(r.success_rate(), 2.0f / 3.0f);
  EXPECT_FLOAT_EQ(r.mean_l1_over_success(), 2.0f);
  EXPECT_FLOAT_EQ(r.mean_l2_over_success(), 1.0f);
}

TEST(FillDistortions, ComputesRowwiseNorms) {
  AttackResult r;
  const Tensor nat = Tensor::from_data(Shape({2, 1, 1, 2}), {0, 0, 0, 0});
  r.adversarial =
      Tensor::from_data(Shape({2, 1, 1, 2}), {0.3f, -0.4f, 0.0f, 0.0f});
  fill_distortions(r, nat);
  EXPECT_FLOAT_EQ(r.l1[0], 0.7f);
  EXPECT_FLOAT_EQ(r.l2[0], 0.5f);
  EXPECT_FLOAT_EQ(r.linf[0], 0.4f);
  EXPECT_FLOAT_EQ(r.l1[1], 0.0f);
}

/// Target with fixed per-row detector losses; records the batch they were
/// asked for. It is never run forward or backward.
class FixedAuxTarget final : public AttackTarget {
 public:
  explicit FixedAuxTarget(std::vector<float> aux) : aux_(std::move(aux)) {}
  ThreatModel threat_model() const override {
    return ThreatModel::DetectorAware;
  }
  std::string tag_suffix() const override { return "fixed-aux"; }
  Tensor logits(const Tensor&, nn::Mode) override {
    throw std::logic_error("FixedAuxTarget::logits");
  }
  Tensor input_grad(const Tensor&, const Tensor&) override {
    throw std::logic_error("FixedAuxTarget::input_grad");
  }
  bool has_aux() const override { return true; }
  std::vector<float> aux_loss(const Tensor& batch) override {
    scored = batch;
    return aux_;
  }

  Tensor scored;

 private:
  std::vector<float> aux_;
};

TEST(FinishResult, DetectorVetoAndFailuresRestoreNaturalRows) {
  const Tensor nat = Tensor::from_data(Shape({3, 1, 1, 2}), {0, 0, 0, 0, 0, 0});
  const Tensor x = Tensor::from_data(Shape({3, 1, 1, 2}),
                                     {0.3f, -0.4f, 0.1f, 0.2f, 0.5f, 0.5f});
  // Row 0 fools and evades, row 1 fools but trips a detector, row 2 fails.
  FixedAuxTarget target({0.0f, 0.5f, 0.0f});
  const AttackResult r = finish_result(target, x, {true, true, false}, nat);
  // The detectors score the crafted iterate, before any row is restored.
  ASSERT_EQ(target.scored.numel(), x.numel());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(target.scored[i], x[i]);
  }
  EXPECT_EQ(r.success, (std::vector<bool>{true, false, false}));
  EXPECT_FLOAT_EQ(r.adversarial[0], 0.3f);
  EXPECT_FLOAT_EQ(r.adversarial[1], -0.4f);
  for (std::size_t i = 2; i < 6; ++i) EXPECT_FLOAT_EQ(r.adversarial[i], 0.0f);
  EXPECT_FLOAT_EQ(r.l1[0], 0.7f);
  EXPECT_FLOAT_EQ(r.l2[0], 0.5f);
  EXPECT_FLOAT_EQ(r.linf[0], 0.4f);
  EXPECT_FLOAT_EQ(r.l1[1], 0.0f);
  EXPECT_FLOAT_EQ(r.l1[2], 0.0f);

  // Without detectors only the classifier's verdict counts.
  nn::Sequential m = linear_model();
  ObliviousTarget bare(m);
  const AttackResult plain = finish_result(bare, x, {true, true, false}, nat);
  EXPECT_EQ(plain.success, (std::vector<bool>{true, true, false}));
  EXPECT_FLOAT_EQ(plain.adversarial[2], 0.1f);
  EXPECT_FLOAT_EQ(plain.adversarial[3], 0.2f);
  EXPECT_FLOAT_EQ(plain.adversarial[4], 0.0f);
  EXPECT_NEAR(plain.l1[1], 0.3f, 1e-6f);
}

// --- EAD / C&W ---------------------------------------------------------------

TEST(Ead, FlipsLinearModelWithRequestedMargin) {
  nn::Sequential m = linear_model(8.0f);
  ObliviousTarget target(m);
  const Tensor x = class0_image();
  EadConfig cfg;
  cfg.beta = 0.01f;
  cfg.kappa = 2.0f;
  cfg.iterations = 150;
  cfg.binary_search_steps = 4;
  cfg.initial_c = 1.0f;
  const AttackResult r = ead_attack(m, x, {0}, cfg);
  ASSERT_TRUE(r.success[0]);
  // Verify the margin on the crafted example.
  const HingeEval e =
      eval_untargeted_hinge(target, r.adversarial, {0}, cfg.kappa);
  EXPECT_GE(e.margin[0], cfg.kappa - 1e-3f);
  // Box constraint holds.
  EXPECT_GE(min_value(r.adversarial), 0.0f);
  EXPECT_LE(max_value(r.adversarial), 1.0f);
  // Distortion recorded and nonzero.
  EXPECT_GT(r.l1[0], 0.0f);
  EXPECT_GT(r.l2[0], 0.0f);
}

TEST(Ead, FailedRowsKeepNaturalImage) {
  nn::Sequential m = linear_model(1000.0f);  // margin unreachable in budget
  const Tensor x = class0_image();
  EadConfig cfg;
  cfg.kappa = 1e6f;
  cfg.iterations = 5;
  cfg.binary_search_steps = 1;
  cfg.initial_c = 1e-6f;
  const AttackResult r = ead_attack(m, x, {0}, cfg);
  EXPECT_FALSE(r.success[0]);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(r.adversarial[i], x[i]);
  }
  EXPECT_FLOAT_EQ(r.l1[0], 0.0f);
}

TEST(Ead, LargerBetaGivesSparserPerturbation) {
  nn::Sequential m = linear_model(8.0f);
  // 16-pixel image so sparsity is measurable; class 0 active on the first
  // half of pixels.
  Rng rng(9);
  nn::Sequential wide;
  wide.emplace<nn::Flatten>();
  auto& lin = wide.emplace<nn::Linear>(16, 2, rng);
  Tensor w({16, 2});
  for (std::size_t i = 0; i < 16; ++i) {
    // Varying weights so the attack has "important" and "unimportant"
    // pixels to choose between.
    w.at(i, 0) = (i < 8) ? 4.0f + 0.5f * static_cast<float>(i) : 0.0f;
    w.at(i, 1) = (i < 8) ? 0.0f : 4.0f + 0.5f * static_cast<float>(i - 8);
  }
  *lin.parameters()[0] = w;
  lin.parameters()[1]->fill(0.0f);

  Tensor x({1, 1, 4, 4}, 0.0f);
  for (std::size_t i = 0; i < 8; ++i) x[i] = 0.6f;  // class 0 ink

  auto run = [&](float beta) {
    EadConfig cfg;
    cfg.beta = beta;
    cfg.kappa = 1.0f;
    cfg.iterations = 200;
    cfg.binary_search_steps = 4;
    cfg.initial_c = 1.0f;
    cfg.rule = DecisionRule::L1;
    return ead_attack(wide, x, {0}, cfg);
  };
  const AttackResult dense = run(0.0f);
  const AttackResult sparse = run(0.05f);
  ASSERT_TRUE(dense.success[0]);
  ASSERT_TRUE(sparse.success[0]);
  auto nonzeros = [&](const AttackResult& r) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < 16; ++i) {
      if (std::fabs(r.adversarial[i] - x[i]) > 1e-4f) ++n;
    }
    return n;
  };
  EXPECT_LT(nonzeros(sparse), nonzeros(dense));
  EXPECT_LT(sparse.l1[0], dense.l1[0] + 1e-3f);
}

TEST(Ead, MultiRuleSharesSuccessesAndOrdersDistortion) {
  nn::Sequential m = linear_model(8.0f);
  const Tensor x = class0_image();
  EadConfig cfg;
  cfg.beta = 0.02f;
  cfg.kappa = 1.0f;
  cfg.iterations = 120;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 1.0f;
  const DecisionRule rules[2] = {DecisionRule::EN, DecisionRule::L1};
  const auto rs = ead_attack_multi(m, x, {0}, cfg, rules);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].success[0], rs[1].success[0]);
  ASSERT_TRUE(rs[0].success[0]);
  // The L1-rule pick cannot have larger L1 than the EN-rule pick.
  EXPECT_LE(rs[1].l1[0], rs[0].l1[0] + 1e-4f);
}

TEST(Ead, ValidatesConfiguration) {
  nn::Sequential m = linear_model();
  const Tensor x = class0_image();
  EadConfig cfg;
  cfg.iterations = 0;
  EXPECT_THROW(ead_attack(m, x, {0}, cfg), std::invalid_argument);
  cfg.iterations = 10;
  cfg.binary_search_steps = 0;
  EXPECT_THROW(ead_attack(m, x, {0}, cfg), std::invalid_argument);
  cfg.binary_search_steps = 1;
  EXPECT_THROW(ead_attack(m, x, {0, 1}, cfg), std::invalid_argument);
  EXPECT_THROW(
      ead_attack_multi(m, x, {0}, cfg, std::span<const DecisionRule>{}),
      std::invalid_argument);
}

TEST(CwL2, IsEadWithZeroBeta) {
  nn::Sequential m = linear_model(8.0f);
  const Tensor x = class0_image();
  CwL2Config cw;
  cw.kappa = 1.0f;
  cw.iterations = 120;
  cw.binary_search_steps = 3;
  cw.initial_c = 1.0f;
  const AttackResult a = cw_l2_attack(m, x, {0}, cw);

  EadConfig ead;
  ead.beta = 0.0f;
  ead.kappa = 1.0f;
  ead.iterations = 120;
  ead.binary_search_steps = 3;
  ead.initial_c = 1.0f;
  ead.rule = DecisionRule::L2;
  const AttackResult b = ead_attack(m, x, {0}, ead);
  ASSERT_TRUE(a.success[0]);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.adversarial[i], b.adversarial[i]);
  }
}

TEST(CwL2, HigherConfidenceCostsMoreDistortion) {
  nn::Sequential m = linear_model(8.0f);
  const Tensor x = class0_image();
  auto run = [&](float kappa) {
    CwL2Config cfg;
    cfg.kappa = kappa;
    cfg.iterations = 150;
    cfg.binary_search_steps = 4;
    cfg.initial_c = 1.0f;
    return cw_l2_attack(m, x, {0}, cfg);
  };
  const AttackResult lo = run(0.5f);
  const AttackResult hi = run(8.0f);
  ASSERT_TRUE(lo.success[0]);
  ASSERT_TRUE(hi.success[0]);
  EXPECT_GT(hi.l2[0], lo.l2[0]);
}

TEST(TargetedHinge, MarginOrientedTowardTarget) {
  nn::Sequential m = linear_model(8.0f);
  ObliviousTarget target(m);
  const Tensor x = class0_image();
  // Target class 1: margin = z_1 - z_0 = 1.6 - 12.8 = -11.2 (not reached).
  const HingeEval e =
      eval_attack_hinge(target, x, {1}, 2.0f, HingeMode::Targeted);
  EXPECT_NEAR(e.margin[0], -11.2f, 1e-4f);
  EXPECT_NEAR(e.f[0], 11.2f, 1e-4f);
  // Gradient ascends z_1 and descends z_0: d(z0 - z1)/dx = s*(1,1,-1,-1).
  const Tensor g = attack_hinge_input_gradient(target, x, e, {1}, 2.0f,
                                               {1.0f}, HingeMode::Targeted);
  EXPECT_NEAR(g[0], 8.0f, 1e-4f);   // descending -g pushes x0, x1 down
  EXPECT_NEAR(g[2], -8.0f, 1e-4f);  // and x2, x3 up -> toward class 1
}

TEST(TargetedEad, ReachesRequestedTargetClass) {
  nn::Sequential m = linear_model(8.0f);
  const Tensor x = class0_image();  // naturally class 0
  EadConfig cfg;
  cfg.beta = 0.01f;
  cfg.kappa = 1.0f;
  cfg.iterations = 150;
  cfg.binary_search_steps = 4;
  cfg.initial_c = 1.0f;
  cfg.mode = HingeMode::Targeted;
  const AttackResult r = ead_attack(m, x, {1}, cfg);  // labels = targets
  ASSERT_TRUE(r.success[0]);
  const Tensor logits = m.forward(r.adversarial, nn::Mode::Eval);
  EXPECT_EQ(argmax_row(logits, 0), 1u);
  // Confidence gap satisfied.
  EXPECT_GE(logits[1] - logits[0], cfg.kappa - 1e-3f);
}

TEST(TargetedEad, HingeInactiveOnceTargetConfident) {
  nn::Sequential m = linear_model(8.0f);
  ObliviousTarget target(m);
  // Already strongly class 1; targeting class 1 means the hinge is
  // saturated and the gradient is zero.
  const Tensor x =
      Tensor::from_data(Shape({1, 1, 2, 2}), {0.0f, 0.0f, 0.9f, 0.9f});
  const HingeEval e =
      eval_attack_hinge(target, x, {1}, 2.0f, HingeMode::Targeted);
  EXPECT_GT(e.margin[0], 2.0f);
  const Tensor g = attack_hinge_input_gradient(target, x, e, {1}, 2.0f,
                                               {1.0f}, HingeMode::Targeted);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(g[i], 0.0f);
}

TEST(TargetedHinge, RejectsOutOfRangeLabel) {
  nn::Sequential m = linear_model();
  ObliviousTarget target(m);
  EXPECT_THROW(
      eval_attack_hinge(target, class0_image(), {7}, 0.0f,
                        HingeMode::Targeted),
      std::invalid_argument);
}

// --- FGSM ---------------------------------------------------------------------

TEST(Fgsm, RespectsEpsilonBall) {
  nn::Sequential m = linear_model(8.0f);
  const Tensor x = class0_image();
  FgsmConfig cfg;
  cfg.epsilon = 0.15f;
  const AttackResult r = fgsm_attack(m, x, {0}, cfg);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(r.adversarial[i] - x[i]), cfg.epsilon + 1e-5f);
  }
  EXPECT_GE(min_value(r.adversarial), 0.0f);
  EXPECT_LE(max_value(r.adversarial), 1.0f);
}

TEST(Fgsm, LargeEpsilonFlipsLinearModel) {
  nn::Sequential m = linear_model(8.0f);
  const Tensor x = class0_image();
  FgsmConfig cfg;
  cfg.epsilon = 0.8f;
  const AttackResult r = fgsm_attack(m, x, {0}, cfg);
  EXPECT_TRUE(r.success[0]);
  EXPECT_GT(r.linf[0], 0.0f);
}

TEST(Fgsm, IterativeIsNoWeakerThanOneShot) {
  nn::Sequential m = linear_model(8.0f);
  const Tensor x = class0_image();
  FgsmConfig one;
  one.epsilon = 0.5f;
  one.iterations = 1;
  FgsmConfig many = one;
  many.iterations = 10;
  const auto r1 = fgsm_attack(m, x, {0}, one);
  const auto rn = fgsm_attack(m, x, {0}, many);
  EXPECT_GE(static_cast<int>(rn.success[0]), static_cast<int>(r1.success[0]));
}

TEST(Fgsm, ValidatesInputs) {
  nn::Sequential m = linear_model();
  FgsmConfig cfg;
  cfg.iterations = 0;
  EXPECT_THROW(fgsm_attack(m, class0_image(), {0}, cfg),
               std::invalid_argument);
  cfg.iterations = 1;
  EXPECT_THROW(fgsm_attack(m, class0_image(), {0, 1}, cfg),
               std::invalid_argument);
  EXPECT_THROW(fgsm_attack(m, class0_image(), {7}, cfg),
               std::invalid_argument);
}

// --- DeepFool -------------------------------------------------------------------

TEST(DeepFool, FlipsLinearModelWithSmallPerturbation) {
  nn::Sequential m = linear_model(8.0f);
  // Start near the boundary: x0+x1 = 0.6 vs x2+x3 = 0.4.
  const Tensor x =
      Tensor::from_data(Shape({1, 1, 2, 2}), {0.3f, 0.3f, 0.2f, 0.2f});
  DeepFoolConfig cfg;
  const AttackResult r = deepfool_attack(m, x, {0}, cfg);
  ASSERT_TRUE(r.success[0]);
  // DeepFool finds a near-minimal perturbation: boundary distance is
  // |0.2| * s / (s * 2) = 0.1 in L2 over the 4-pixel gradient direction.
  EXPECT_LT(r.l2[0], 0.3f);
  EXPECT_GE(min_value(r.adversarial), 0.0f);
  EXPECT_LE(max_value(r.adversarial), 1.0f);
}

TEST(DeepFool, LeavesAlreadyMisclassifiedAlone) {
  nn::Sequential m = linear_model(8.0f);
  const Tensor x = class0_image();
  // Deliberately wrong label: the model already "misclassifies".
  const AttackResult r = deepfool_attack(m, x, {1}, DeepFoolConfig{});
  EXPECT_TRUE(r.success[0]);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(r.adversarial[i], x[i]);
  }
}

TEST(DeepFool, ValidatesInputs) {
  nn::Sequential m = linear_model();
  EXPECT_THROW(deepfool_attack(m, class0_image(), {0, 1}, DeepFoolConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace adv::attacks
