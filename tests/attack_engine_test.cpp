// Active-set attack engine tests: every attack must craft each row of a
// batch exactly as it crafts that image alone, under every threat model
// (I-FGSM and DeepFool on compacted sub-batches once rows retire; EAD and
// C&W-L2 on the full batch throughout), plain ISTA's reuse of the
// candidate forward must be bitwise invisible under every threat model.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "attacks/attack.hpp"
#include "attacks/cw.hpp"
#include "attacks/deepfool.hpp"
#include "attacks/ead.hpp"
#include "attacks/engine.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/target.hpp"
#include "magnet/detector_grad.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/structural.hpp"
#include "obs/metrics.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {
namespace {

/// Small conv classifier over 8x8 single-channel images, 4 classes —
/// exercises Conv2d, pooling, both cached-input and cached-output
/// activations, and Linear in every engine pass.
nn::Sequential conv_classifier(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential m;
  m.emplace<nn::Conv2d>(nn::Conv2d::same(1, 4), rng);
  m.emplace<nn::ReLU>();
  m.emplace<nn::MaxPool2d>(2);
  m.emplace<nn::Flatten>();
  m.emplace<nn::Linear>(4 * 4 * 4, 8, rng);
  m.emplace<nn::Tanh>();
  m.emplace<nn::Linear>(8, 4, rng);
  // Scale the head so logits have an attackable range.
  scale_inplace(*m.parameters()[4], 4.0f);
  return m;
}

std::pair<Tensor, std::vector<int>> labeled_batch(nn::Sequential& m,
                                                  std::uint64_t seed,
                                                  std::size_t n) {
  Rng rng(seed);
  Tensor x({n, 1, 8, 8});
  fill_uniform(x, rng, 0.1f, 0.9f);
  const Tensor logits = m.forward(x, nn::Mode::Infer);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(argmax_row(logits, i));
  }
  return {x, labels};
}

void expect_bitwise_equal(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.adversarial.numel(), b.adversarial.numel());
  EXPECT_EQ(0, std::memcmp(a.adversarial.data(), b.adversarial.data(),
                           a.adversarial.numel() * sizeof(float)));
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.l1, b.l1);
  EXPECT_EQ(a.l2, b.l2);
  EXPECT_EQ(a.linf, b.linf);
}

// --- ActiveSet units -------------------------------------------------------

TEST(ActiveSet, RetireKeepsIndicesSortedAndFlagsConsistent) {
  ActiveSet rows(5);
  EXPECT_TRUE(rows.all_active());
  rows.retire(3);
  rows.retire(0);
  rows.retire(3);  // repeat is a no-op
  EXPECT_EQ(rows.active_count(), 3u);
  EXPECT_EQ(rows.indices(), (std::vector<std::size_t>{1, 2, 4}));
  rows.retire(1);
  rows.retire(2);
  rows.retire(4);
  EXPECT_TRUE(rows.none_active());
}

TEST(ActiveSet, PickGathersOnlyOnceARowRetires) {
  ActiveSet rows(3);
  const Tensor batch =
      Tensor::from_data(Shape({3, 2}), {0, 1, 10, 11, 20, 21});
  const std::vector<int> labels{7, 8, 9};
  Tensor storage;
  std::vector<int> lab_storage;
  EngineStats stats;
  // All active: the full batch itself, nothing saved.
  EXPECT_EQ(&rows.pick(batch, storage), &batch);
  EXPECT_EQ(&rows.pick(labels, lab_storage), &labels);
  rows.record_passes(stats, 2);
  EXPECT_EQ(stats.passes_saved, 0u);

  rows.retire(1);
  const Tensor& sub = rows.pick(batch, storage);
  EXPECT_EQ(&sub, &storage);
  ASSERT_EQ(sub.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(sub[1], 1.0f);
  EXPECT_FLOAT_EQ(sub[2], 20.0f);
  EXPECT_EQ(rows.pick(labels, lab_storage), (std::vector<int>{7, 9}));
  rows.record_passes(stats, 2);  // two passes, one row skipped in each
  EXPECT_EQ(stats.passes_saved, 2u);
}

TEST(GatherScatter, RoundTripsRowsInOrder) {
  const Tensor batch = Tensor::from_data(Shape({4, 2}),
                                         {0, 1, 10, 11, 20, 21, 30, 31});
  const std::vector<std::size_t> idx{1, 3};
  const Tensor sub = gather_rows(batch, idx);
  ASSERT_EQ(sub.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(sub[0], 10.0f);
  EXPECT_FLOAT_EQ(sub[3], 31.0f);
}

// --- ead_attack vs ead_attack_multi (single-rule extraction) --------------

TEST(EadMulti, SingleRuleMatchesMultiRuleZero) {
  EadConfig cfg;
  cfg.beta = 0.02f;
  cfg.kappa = 0.5f;
  cfg.iterations = 40;
  cfg.binary_search_steps = 2;
  cfg.initial_c = 0.5f;
  cfg.rule = DecisionRule::L1;

  nn::Sequential m1 = conv_classifier(57);
  nn::Sequential m2 = conv_classifier(57);
  auto [x, labels] = labeled_batch(m1, 58, 4);

  const AttackResult single = ead_attack(m1, x, labels, cfg);
  const DecisionRule rules[2] = {DecisionRule::L1, DecisionRule::EN};
  const std::vector<AttackResult> multi =
      ead_attack_multi(m2, x, labels, cfg, rules);
  ASSERT_EQ(multi.size(), 2u);
  expect_bitwise_equal(single, multi[0]);
}

// --- forwarding targets and the defense fixture ---------------------------

/// Forwarding target whose input_grad first re-runs the Eval forward on
/// the batch it is given, so every gradient comes from fresh tapes. An
/// attack through it matches the bare target bitwise exactly when the
/// attack only ever differentiates a forward of that same batch.
class FreshTapeTarget final : public AttackTarget {
 public:
  explicit FreshTapeTarget(AttackTarget& inner) : inner_(inner) {}

  ThreatModel threat_model() const override { return inner_.threat_model(); }
  std::string tag_suffix() const override { return inner_.tag_suffix(); }
  Tensor logits(const Tensor& batch, nn::Mode mode) override {
    return inner_.logits(batch, mode);
  }
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override {
    inner_.logits(batch, nn::Mode::Eval);
    return inner_.input_grad(batch, upstream);
  }
  bool has_aux() const override { return inner_.has_aux(); }
  std::vector<float> aux_loss(const Tensor& batch) override {
    return inner_.aux_loss(batch);
  }
  Tensor aux_input_grad(const Tensor& batch,
                        const std::vector<float>& weight) override {
    return inner_.aux_input_grad(batch, weight);
  }

 private:
  AttackTarget& inner_;
};

/// Forwarding target that counts the model passes an attack asks for.
class CountingTarget final : public AttackTarget {
 public:
  explicit CountingTarget(AttackTarget& inner) : inner_(inner) {}

  ThreatModel threat_model() const override { return inner_.threat_model(); }
  std::string tag_suffix() const override { return inner_.tag_suffix(); }
  Tensor logits(const Tensor& batch, nn::Mode mode) override {
    ++(mode == nn::Mode::Eval ? evals : infers);
    min_rows = std::min(min_rows, batch.dim(0));
    rows += batch.dim(0);
    return inner_.logits(batch, mode);
  }
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override {
    ++backwards;
    rows += batch.dim(0);
    return inner_.input_grad(batch, upstream);
  }
  bool has_aux() const override { return inner_.has_aux(); }
  std::vector<float> aux_loss(const Tensor& batch) override {
    std::vector<float> loss = inner_.aux_loss(batch);
    for (const float v : loss) aux_rows_over += v > 0.0f;
    return loss;
  }
  Tensor aux_input_grad(const Tensor& batch,
                        const std::vector<float>& weight) override {
    return inner_.aux_input_grad(batch, weight);
  }

  std::size_t evals = 0, infers = 0, backwards = 0;
  std::size_t aux_rows_over = 0;  // aux_loss rows over a detector threshold
  std::size_t min_rows = static_cast<std::size_t>(-1);
  std::size_t rows = 0;  // batch rows over every forward and backward

  /// Row-passes left out of the passes relative to an `n`-row batch.
  std::size_t skipped(std::size_t n) const {
    return (evals + infers + backwards) * n - rows;
  }

 private:
  AttackTarget& inner_;
};

/// Classifier, reformer auto-encoder and detector terms over 8x8 images,
/// from which each run builds targets of its own (own tapes).
struct Defense {
  std::shared_ptr<nn::Sequential> clf =
      std::make_shared<nn::Sequential>(conv_classifier(87));
  std::shared_ptr<nn::Sequential> ae = [] {
    Rng rng(88);
    auto m = std::make_shared<nn::Sequential>();
    m->emplace<nn::Conv2d>(nn::Conv2d::same(1, 3), rng);
    m->emplace<nn::ReLU>();
    m->emplace<nn::Conv2d>(nn::Conv2d::same(3, 1), rng);
    m->emplace<nn::Sigmoid>();
    return m;
  }();
  // Detector thresholds: by default low enough that both penalties are
  // active.
  float recon_threshold = 0.05f;
  float jsd_threshold = 1e-5f;

  /// Turns the reformer into a near-identity map, sigmoid(4x - 2) plus a
  /// little of its random mixing, so attacks through it can succeed.
  void pass_through_reformer() {
    const std::vector<Tensor*> p = ae->parameters();
    scale_inplace(*p[0], 0.1f);
    scale_inplace(*p[2], 0.1f);
    (*p[0])[4] += 1.0f;   // conv 1: channel 0 copies the 3x3 centre
    (*p[2])[4] += 4.0f;   // conv 2: reads channel 0's centre ...
    (*p[3])[0] -= 2.0f;   // ... minus 2, into the sigmoid
  }

  std::unique_ptr<AttackTarget> target(ThreatModel tm) const {
    switch (tm) {
      case ThreatModel::Oblivious:
        return std::make_unique<ObliviousTarget>(*clf);
      case ThreatModel::GrayBox:
        return std::make_unique<GrayBoxTarget>(*ae, *clf);
      case ThreatModel::DetectorAware:
        return std::make_unique<DetectorAwareTarget>(
            ae.get(), *clf,
            std::vector<std::shared_ptr<AuxObjective>>{
                std::make_shared<magnet::ReconErrorTerm>(
                    ae, 1, recon_threshold, "l1"),
                std::make_shared<magnet::JsdEvasionTerm>(
                    ae, clf, 10.0f, jsd_threshold, "jsd")});
    }
    return nullptr;
  }
};

// --- batched == each image crafted alone, attack by attack ---------------

/// Defense the per-image tests attack: a near-identity reformer and
/// detector thresholds at which some crafted rows evade and some do not.
Defense pass_through_defense() {
  Defense def;
  def.pass_through_reformer();
  def.recon_threshold = 0.04f;
  def.jsd_threshold = 1e-4f;
  return def;
}

using Craft = std::function<AttackResult(AttackTarget&, const Tensor&,
                                         const std::vector<int>&)>;

/// Whether an attack's model passes shrink to sub-batches as rows retire
/// (I-FGSM, DeepFool) or always see the full batch (EAD, C&W-L2).
enum class Passes { Gathered, FullBatch };

constexpr ThreatModel kAllThreatModels[] = {
    ThreatModel::Oblivious, ThreatModel::GrayBox, ThreatModel::DetectorAware};

/// Crafts `x` as one batch and each image alone, under each threat model
/// in `tms`. Every attack treats its images independently and every layer
/// is per-row independent, so the batch's row i — crafted on compacted
/// sub-batches once rows retire — must equal image i crafted alone (a
/// one-row batch never gathers) bit for bit. Each case must have taken
/// the `passes` path and made at least one row succeed, and the
/// detector-aware case must have met an active detector penalty, else it
/// shows nothing.
void expect_batched_equals_per_image(
    const Defense& def, const Tensor& x, const std::vector<int>& labels,
    const Craft& craft, Passes passes,
    std::span<const ThreatModel> tms = kAllThreatModels) {
  const std::size_t n = x.dim(0);
  const std::size_t row = x.numel() / n;
  for (const ThreatModel tm : tms) {
    SCOPED_TRACE(to_string(tm));
    const std::unique_ptr<AttackTarget> bare = def.target(tm);
    CountingTarget counted(*bare);
    const AttackResult batched = craft(counted, x, labels);
    if (passes == Passes::Gathered) {
      EXPECT_LT(counted.min_rows, n);
    } else {
      EXPECT_EQ(counted.min_rows, n);
    }
    EXPECT_GT(batched.success_count(), 0u);
    if (tm == ThreatModel::DetectorAware) {
      EXPECT_GT(counted.aux_rows_over, 0u);
    }

    const std::unique_ptr<AttackTarget> single = def.target(tm);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(i);
      const AttackResult alone =
          craft(*single, gather_rows(x, {i}), {labels[i]});
      EXPECT_EQ(0, std::memcmp(batched.adversarial.data() + i * row,
                               alone.adversarial.data(),
                               row * sizeof(float)));
      EXPECT_EQ(batched.success[i], alone.success[0]);
      EXPECT_EQ(batched.l1[i], alone.l1[0]);
      EXPECT_EQ(batched.l2[i], alone.l2[0]);
      EXPECT_EQ(batched.linf[i], alone.linf[0]);
    }
  }
}

TEST(BatchedEqualsPerImage, Ead) {
  EadConfig cfg;
  cfg.beta = 0.01f;
  cfg.kappa = 1.0f;
  cfg.iterations = 60;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 0.5f;
  const Defense def = pass_through_defense();
  auto [x, labels] = labeled_batch(*def.clf, 8, 6);
  expect_batched_equals_per_image(
      def, x, labels,
      [&](AttackTarget& t, const Tensor& b, const std::vector<int>& y) {
        return ead_attack(t, b, y, cfg);
      },
      Passes::FullBatch);
}

TEST(BatchedEqualsPerImage, CwL2) {
  CwL2Config cfg;
  cfg.kappa = 0.5f;
  cfg.iterations = 50;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 0.5f;
  const Defense def = pass_through_defense();
  auto [x, labels] = labeled_batch(*def.clf, 18, 6);
  expect_batched_equals_per_image(
      def, x, labels,
      [&](AttackTarget& t, const Tensor& b, const std::vector<int>& y) {
        return cw_l2_attack(t, b, y, cfg);
      },
      Passes::FullBatch);
}

TEST(BatchedEqualsPerImage, TargetedEad) {
  EadConfig cfg;
  cfg.beta = 0.01f;
  cfg.kappa = 0.5f;
  cfg.iterations = 60;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 0.5f;
  cfg.mode = HingeMode::Targeted;
  const Defense def = pass_through_defense();
  auto [x, targets] = labeled_batch(*def.clf, 48, 6);
  for (int& t : targets) t = (t + 1) % 4;  // any class but the predicted
  expect_batched_equals_per_image(
      def, x, targets,
      [&](AttackTarget& t, const Tensor& b, const std::vector<int>& y) {
        return ead_attack(t, b, y, cfg);
      },
      Passes::FullBatch);
}

/// An I-FGSM case in which rows retire. I-FGSM retires a row only at a
/// fixed point of its sign step. Lowering the classifier's first-layer
/// bias and dimming two images to 5% makes every first-layer ReLU dead on
/// them: their cross-entropy gradient is exactly zero, so they stop
/// moving and retire.
struct RetiringIfgsm {
  Defense def = pass_through_defense();
  Tensor x;
  std::vector<int> labels;
  FgsmConfig cfg{.epsilon = 0.2f, .iterations = 12};

  RetiringIfgsm() {
    Tensor& bias = *def.clf->parameters()[1];
    for (std::size_t c = 0; c < bias.numel(); ++c) bias[c] -= 0.3f;
    std::tie(x, labels) = labeled_batch(*def.clf, 28, 8);
    const std::size_t row = x.numel() / x.dim(0);
    for (std::size_t j = 0; j < 2 * row; ++j) x[j] *= 0.05f;
    const Tensor logits = def.clf->forward(x, nn::Mode::Infer);
    for (std::size_t i = 0; i < 2; ++i) {
      labels[i] = static_cast<int>(argmax_row(logits, i));
    }
  }
};

TEST(BatchedEqualsPerImage, Ifgsm) {
  const RetiringIfgsm c;
  const FgsmConfig& cfg = c.cfg;
  const Craft craft = [&](AttackTarget& t, const Tensor& b,
                          const std::vector<int>& y) {
    return fgsm_attack(t, b, y, cfg);
  };
  expect_batched_equals_per_image(c.def, c.x, c.labels, craft,
                                  Passes::Gathered);

  // Saturated softmax: with the head scaled 50x the off-label
  // probabilities are subnormal or zero, where a cross-entropy seed
  // divided by the batch size rounds differently in a batch than alone.
  // Each row's own un-normalized seed keeps the sign step batch-invariant.
  SCOPED_TRACE("saturated head");
  Defense sat = pass_through_defense();
  scale_inplace(*sat.clf->parameters()[4], 50.0f);
  auto [xs, ys] = labeled_batch(*sat.clf, 8, 8);
  const ThreatModel gray_box[] = {ThreatModel::GrayBox};
  expect_batched_equals_per_image(sat, xs, ys, craft, Passes::Gathered,
                                  gray_box);
}

TEST(BatchedEqualsPerImage, DeepFool) {
  DeepFoolConfig cfg;
  cfg.max_iterations = 25;
  const Defense def = pass_through_defense();
  auto [x, labels] = labeled_batch(*def.clf, 38, 8);
  expect_batched_equals_per_image(
      def, x, labels,
      [&](AttackTarget& t, const Tensor& b, const std::vector<int>& y) {
        return deepfool_attack(t, b, y, cfg);
      },
      Passes::Gathered);
}

// --- engine counters --------------------------------------------------------

/// Turns adv::obs on for one test and restores it after.
class ObsOn {
 public:
  ObsOn() : was_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsOn() { obs::set_enabled(was_); }
  ObsOn(const ObsOn&) = delete;
  ObsOn& operator=(const ObsOn&) = delete;

 private:
  bool was_;
};

std::uint64_t counter(const std::string& key) {
  return obs::MetricsRegistry::global().counter(key).value();
}

TEST(EngineStats, PassesSavedCountsRowsTheTargetSkipped) {
  const ObsOn on;
  if (!obs::enabled()) GTEST_SKIP() << "ADV_OBS pinned off";
  const RetiringIfgsm ifgsm;
  const Defense deepfool_def = pass_through_defense();
  auto [x, labels] = labeled_batch(*deepfool_def.clf, 38, 8);
  const DeepFoolConfig deepfool{.max_iterations = 25};
  struct Run {
    const char* name;
    const Defense& def;
    std::size_t n;
    std::function<void(AttackTarget&)> craft;
  } runs[] = {
      {"ifgsm", ifgsm.def, ifgsm.x.dim(0),
       [&](AttackTarget& t) {
         fgsm_attack(t, ifgsm.x, ifgsm.labels, ifgsm.cfg);
       }},
      {"deepfool", deepfool_def, x.dim(0),
       [&](AttackTarget& t) { deepfool_attack(t, x, labels, deepfool); }},
  };
  for (const Run& run : runs) {
    SCOPED_TRACE(run.name);
    const std::string prefix = std::string("attack/") + run.name + "/";
    const std::uint64_t saved0 = counter(prefix + "passes_saved");
    const std::uint64_t retired0 = counter(prefix + "rows_retired");
    const std::unique_ptr<AttackTarget> bare =
        run.def.target(ThreatModel::Oblivious);
    CountingTarget counted(*bare);
    run.craft(counted);
    EXPECT_GT(counted.skipped(run.n), 0u);
    EXPECT_EQ(counter(prefix + "passes_saved") - saved0,
              counted.skipped(run.n));
    EXPECT_GT(counter(prefix + "rows_retired") - retired0, 0u);
  }
}

TEST(EngineStats, EadAndCwL2RecordNoEngineCounters) {
  const ObsOn on;
  if (!obs::enabled()) GTEST_SKIP() << "ADV_OBS pinned off";
  // They run every row for the full schedule: nothing retires, so there
  // is nothing to count.
  nn::Sequential m = conv_classifier(47);
  auto [x, labels] = labeled_batch(m, 48, 4);
  const EadConfig ead{.kappa = 0.5f, .iterations = 10,
                      .binary_search_steps = 2, .initial_c = 0.5f};
  ead_attack(m, x, labels, ead);
  const CwL2Config cw{.kappa = 0.5f, .iterations = 10,
                      .binary_search_steps = 2, .initial_c = 0.5f};
  cw_l2_attack(m, x, labels, cw);
  for (const std::string prefix : {"attack/ead/", "attack/cw-l2/"}) {
    for (const auto& sample :
         obs::MetricsRegistry::global().snapshot(prefix)) {
      EXPECT_NE(sample.key, prefix + "rows_retired");
      EXPECT_NE(sample.key, prefix + "passes_saved");
    }
  }
}

// --- forward reuse (plain ISTA) --------------------------------------------

struct ReuseCase {
  const char* name;
  ThreatModel tm;
};

constexpr ReuseCase kReuseCases[] = {
    {"oblivious", ThreatModel::Oblivious},
    {"gray-box", ThreatModel::GrayBox},
    {"detector-aware", ThreatModel::DetectorAware},
};

EadConfig reuse_config() {
  EadConfig cfg;
  cfg.beta = 0.01f;
  cfg.kappa = 1.0f;
  cfg.iterations = 30;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 0.5f;
  return cfg;
}

using CraftEad = std::function<AttackResult(
    AttackTarget&, const Tensor&, const std::vector<int>&, const EadConfig&)>;

/// Runs `craft` on every case through a bare target and through a
/// FreshTapeTarget over another one; the two must agree bitwise.
void expect_reuse_invisible(const CraftEad& craft) {
  const Defense def;
  auto [x, labels] = labeled_batch(*def.clf, 89, 6);
  const EadConfig cfg = reuse_config();
  for (const ReuseCase& rc : kReuseCases) {
    SCOPED_TRACE(rc.name);
    const std::unique_ptr<AttackTarget> bare = def.target(rc.tm);
    const AttackResult reused = craft(*bare, x, labels, cfg);
    const std::unique_ptr<AttackTarget> inner = def.target(rc.tm);
    FreshTapeTarget fresh(*inner);
    expect_bitwise_equal(reused, craft(fresh, x, labels, cfg));
  }
}

TEST(ForwardReuse, EadBitwiseEqualToFreshForwards) {
  expect_reuse_invisible([](AttackTarget& t, const Tensor& x,
                            const std::vector<int>& y, const EadConfig& cfg) {
    return ead_attack(t, x, y, cfg);
  });
}

TEST(ForwardReuse, CwL2BitwiseEqualToFreshForwards) {
  expect_reuse_invisible([](AttackTarget& t, const Tensor& x,
                            const std::vector<int>& y, const EadConfig& cfg) {
    CwL2Config cw;
    cw.kappa = cfg.kappa;
    cw.iterations = cfg.iterations;
    cw.binary_search_steps = cfg.binary_search_steps;
    cw.initial_c = cfg.initial_c;
    return cw_l2_attack(t, x, y, cw);
  });
}

TEST(ForwardReuse, IstaRunsIterationsPlusOneForwardsPerStep) {
  const Defense def;
  auto [x, labels] = labeled_batch(*def.clf, 90, 5);
  const EadConfig cfg = reuse_config();
  const std::size_t steps = cfg.binary_search_steps;
  const std::size_t iters = cfg.iterations;
  for (const ReuseCase& rc : kReuseCases) {
    SCOPED_TRACE(rc.name);
    const std::unique_ptr<AttackTarget> bare = def.target(rc.tm);
    CountingTarget counted(*bare);
    ead_attack(counted, x, labels, cfg);
    EXPECT_EQ(counted.backwards, steps * iters);
    // One gradient forward per step, then each candidate forward is the
    // next iteration's gradient forward; the last one stays Infer.
    EXPECT_EQ(counted.evals + counted.infers, steps * (iters + 1));
    EXPECT_EQ(counted.infers, steps);
  }
}

}  // namespace
}  // namespace adv::attacks
