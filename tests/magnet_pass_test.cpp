// MagNetPipeline runs each distinct model pass once per call (PassMemo).
// These tests pin down the pass count per scheme on the paper's layouts
// and that the shared passes change no value: every reading, threshold,
// rejection and prediction is bitwise what independent nn::predict calls
// per detector, Reformer::reform and nn::predict_labels compute.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/model_zoo.hpp"
#include "magnet/autoencoder.hpp"
#include "magnet/detector.hpp"
#include "magnet/pipeline.hpp"
#include "nn/softmax.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::magnet {
namespace {

constexpr std::size_t kHw = 8;
constexpr DefenseScheme kSchemes[] = {DefenseScheme::Full,
                                      DefenseScheme::DetectorOnly,
                                      DefenseScheme::ReformerOnly,
                                      DefenseScheme::None};

Tensor uniform_batch(std::size_t rows, std::size_t channels,
                     std::uint64_t seed) {
  Tensor t({rows, channels, kHw, kHw});
  Rng rng(seed);
  fill_uniform(t, rng, 0.0f, 1.0f);
  return t;
}

/// A detector outside the library: score = -(top logit of F(x)), taken
/// from the memo like the built-in detectors take theirs.
class TopLogitDetector final : public Detector {
 public:
  explicit TopLogitDetector(std::shared_ptr<nn::Sequential> classifier)
      : classifier_(std::move(classifier)) {}
  std::vector<float> scores_from(PassMemo& memo) const override {
    return top_logit_scores(memo.logits(*classifier_));
  }
  std::string name() const override { return "top_logit"; }

  static std::vector<float> top_logit_scores(const Tensor& logits) {
    const std::size_t n = logits.dim(0), k = logits.dim(1);
    std::vector<float> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = logits.data() + i * k;
      out[i] = -*std::max_element(row, row + k);
    }
    return out;
  }
  const nn::Sequential& classifier() const { return *classifier_; }

 private:
  std::shared_ptr<nn::Sequential> classifier_;
};

enum class Layout {
  Cifar,          // one AE: recon L1/L2, JSD T10/T40 and the reformer
  Mnist,          // recon L2 on the deep AE, recon L1 on the shallow AE
  SplitReformer,  // Cifar, but the reformer AE is a separate model
};

struct Bank {
  std::shared_ptr<MagNetPipeline> pipe;
  std::size_t channels = 0;
};

std::shared_ptr<nn::Sequential> make_ae(AeArch arch, std::size_t channels,
                                        Rng& rng) {
  AutoencoderConfig ac;
  ac.arch = arch;
  ac.image_channels = channels;
  return std::make_shared<nn::Sequential>(build_autoencoder(ac, rng));
}

/// Untrained models on 8x8 images; thresholds at the median of a
/// calibration batch so about half the rows fire per detector.
Bank build_bank(Layout layout, bool with_custom) {
  Rng rng(21);
  const bool mnist = layout == Layout::Mnist;
  const std::size_t channels = mnist ? 1 : 3;
  auto clf = std::make_shared<nn::Sequential>(core::build_classifier(
      mnist ? core::DatasetId::Mnist : core::DatasetId::Cifar, kHw, rng));
  auto pipe = std::make_shared<MagNetPipeline>(clf);
  if (mnist) {
    auto deep = make_ae(AeArch::MnistDeep, 1, rng);
    auto shallow = make_ae(AeArch::MnistShallow, 1, rng);
    pipe->add_detector(std::make_shared<ReconstructionDetector>(deep, 2));
    pipe->add_detector(std::make_shared<ReconstructionDetector>(shallow, 1));
    pipe->set_reformer(std::make_shared<Reformer>(deep));
  } else {
    auto ae = make_ae(AeArch::Cifar, 3, rng);
    pipe->add_detector(std::make_shared<ReconstructionDetector>(ae, 1));
    pipe->add_detector(std::make_shared<ReconstructionDetector>(ae, 2));
    pipe->add_detector(std::make_shared<JsdDetector>(ae, clf, 10.0f));
    pipe->add_detector(std::make_shared<JsdDetector>(ae, clf, 40.0f));
    pipe->set_reformer(std::make_shared<Reformer>(
        layout == Layout::SplitReformer ? make_ae(AeArch::Cifar, 3, rng)
                                        : ae));
  }
  if (with_custom) pipe->add_detector(std::make_shared<TopLogitDetector>(clf));
  pipe->calibrate(uniform_batch(16, channels, 99), 0.5f);
  return {pipe, channels};
}

/// The pre-memo scoring: each detector runs its own nn::predict passes.
std::vector<float> reference_scores(const Detector& d, const Tensor& batch) {
  const std::size_t n = batch.dim(0);
  std::vector<float> out(n);
  if (const auto* r = dynamic_cast<const ReconstructionDetector*>(&d)) {
    const Tensor recon = nn::predict(*r->autoencoder(), batch);
    const std::size_t row = batch.numel() / n;
    for (std::size_t i = 0; i < n; ++i) {
      const float* xi = batch.data() + i * row;
      const float* ri = recon.data() + i * row;
      double acc = 0.0;
      for (std::size_t j = 0; j < row; ++j) {
        if (r->p() == 1) {
          acc += std::fabs(xi[j] - ri[j]);
        } else {
          const double diff = static_cast<double>(xi[j]) - ri[j];
          acc += diff * diff;
        }
      }
      out[i] = static_cast<float>(acc / static_cast<double>(row));
    }
  } else if (const auto* j = dynamic_cast<const JsdDetector*>(&d)) {
    const Tensor recon = nn::predict(*j->autoencoder(), batch);
    const Tensor px = nn::softmax_rows(nn::predict(*j->classifier(), batch),
                                       j->temperature());
    const Tensor pr = nn::softmax_rows(nn::predict(*j->classifier(), recon),
                                       j->temperature());
    const std::size_t k = px.dim(1);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = jensen_shannon_divergence(
          std::span<const float>(px.data() + i * k, k),
          std::span<const float>(pr.data() + i * k, k));
    }
  } else {
    const auto& t = dynamic_cast<const TopLogitDetector&>(d);
    out = TopLogitDetector::top_logit_scores(
        nn::predict(t.classifier(), batch));
  }
  return out;
}

/// The pre-memo classify(): independent passes per stage.
DefenseOutcome reference_classify(MagNetPipeline& pipe, const Tensor& batch,
                                  DefenseScheme scheme) {
  const std::size_t n = batch.dim(0);
  DefenseOutcome out;
  out.rejected.assign(n, false);
  if (scheme == DefenseScheme::Full || scheme == DefenseScheme::DetectorOnly) {
    for (std::size_t d = 0; d < pipe.detector_count(); ++d) {
      DetectorReading r;
      r.name = pipe.detector(d).name();
      r.threshold = pipe.detector(d).threshold();
      r.scores = reference_scores(pipe.detector(d), batch);
      for (std::size_t i = 0; i < n; ++i) {
        if (r.reject_row(i)) out.rejected[i] = true;
      }
      out.readings.push_back(std::move(r));
    }
  }
  const bool reform = scheme == DefenseScheme::Full ||
                      scheme == DefenseScheme::ReformerOnly;
  out.predicted = nn::predict_labels(
      pipe.classifier(), reform ? pipe.reformer()->reform(batch) : batch);
  return out;
}

bool floats_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void expect_outcomes_bitwise_equal(const DefenseOutcome& got,
                                   const DefenseOutcome& want) {
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.predicted, want.predicted);
  ASSERT_EQ(got.readings.size(), want.readings.size());
  for (std::size_t d = 0; d < got.readings.size(); ++d) {
    const DetectorReading& g = got.readings[d];
    const DetectorReading& w = want.readings[d];
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(std::memcmp(&g.threshold, &w.threshold, sizeof(float)), 0)
        << g.name;
    EXPECT_TRUE(floats_bitwise_equal(g.scores, w.scores)) << g.name;
  }
}

/// model/forward_calls added by one classify() of 8 rows.
std::uint64_t forwards_per_classify(const MagNetPipeline& pipe,
                                    const Tensor& batch,
                                    DefenseScheme scheme) {
  obs::Counter& calls =
      obs::MetricsRegistry::global().counter("model/forward_calls");
  const std::uint64_t before = calls.value();
  pipe.classify(batch, scheme);
  return calls.value() - before;
}

class PassCount : public ::testing::Test {
 protected:
  void SetUp() override {
    obs_was_ = obs::enabled();
    if (!obs::enabled_pinned_by_env()) obs::set_enabled(true);
    if (!obs::enabled()) GTEST_SKIP() << "obs off: passes are not counted";
  }
  void TearDown() override {
    if (!obs::enabled_pinned_by_env()) obs::set_enabled(obs_was_);
  }

 private:
  bool obs_was_ = false;
};

// One AE shared by recon L1/L2, JSD T10/T40 and the reformer: AE(x),
// F(x) and F(AE(x)) are the only passes (independent passes: 10/9/2/1).
TEST_F(PassCount, CifarLayoutRunsEachSharedPassOnce) {
  const Bank b = build_bank(Layout::Cifar, false);
  const Tensor x = uniform_batch(8, b.channels, 5);
  EXPECT_EQ(forwards_per_classify(*b.pipe, x, DefenseScheme::Full), 3u);
  EXPECT_EQ(forwards_per_classify(*b.pipe, x, DefenseScheme::DetectorOnly),
            3u);
  EXPECT_EQ(forwards_per_classify(*b.pipe, x, DefenseScheme::ReformerOnly),
            2u);
  EXPECT_EQ(forwards_per_classify(*b.pipe, x, DefenseScheme::None), 1u);
}

// Deep AE (recon L2 + reformer) and shallow AE (recon L1): the reformer
// reuses the deep AE's pass (independent passes: 4).
TEST_F(PassCount, MnistLayoutReusesTheDetectorPassForTheReformer) {
  const Bank b = build_bank(Layout::Mnist, false);
  const Tensor x = uniform_batch(8, b.channels, 6);
  EXPECT_EQ(forwards_per_classify(*b.pipe, x, DefenseScheme::Full), 3u);
}

// A reformer AE that is a different model is never merged with the
// detectors' AE: it adds its own AE pass and the classifier pass on it.
TEST_F(PassCount, DistinctReformerModelIsNotMerged) {
  const Bank b = build_bank(Layout::SplitReformer, false);
  const Tensor x = uniform_batch(8, b.channels, 7);
  EXPECT_EQ(forwards_per_classify(*b.pipe, x, DefenseScheme::Full), 5u);
  EXPECT_EQ(forwards_per_classify(*b.pipe, x, DefenseScheme::DetectorOnly),
            3u);
  EXPECT_EQ(forwards_per_classify(*b.pipe, x, DefenseScheme::ReformerOnly),
            2u);
}

TEST_F(PassCount, MemoComputesEachPassOnceAtAStableAddress) {
  Rng rng(3);
  const nn::Sequential clf =
      core::build_classifier(core::DatasetId::Cifar, kHw, rng);
  const auto ae = make_ae(AeArch::Cifar, 3, rng);
  const Tensor x = uniform_batch(8, 3, 8);
  obs::Counter& calls =
      obs::MetricsRegistry::global().counter("model/forward_calls");
  const std::uint64_t before = calls.value();
  PassMemo memo(x);
  const Tensor& recon = memo.reconstruction(*ae);
  const Tensor& on_recon = memo.logits(clf, ae.get());
  const Tensor& on_x = memo.logits(clf);
  EXPECT_EQ(calls.value() - before, 3u);
  EXPECT_EQ(&memo.reconstruction(*ae), &recon);
  EXPECT_EQ(&memo.logits(clf, ae.get()), &on_recon);
  EXPECT_EQ(&memo.logits(clf), &on_x);
  EXPECT_NE(&on_x, &on_recon);
  EXPECT_EQ(calls.value() - before, 3u);
}

// Every scheme on every layout, with a custom Detector in the bank, at 1,
// 8 and 130 rows (130 crosses nn::predict's 128-row chunk).
TEST(PassMemoIdentity, ClassifyMatchesIndependentPassesBitwise) {
  for (const Layout layout :
       {Layout::Cifar, Layout::Mnist, Layout::SplitReformer}) {
    Bank b = build_bank(layout, true);
    for (const std::size_t rows : {1u, 8u, 130u}) {
      const Tensor x = uniform_batch(rows, b.channels, 40 + rows);
      for (const DefenseScheme scheme : kSchemes) {
        SCOPED_TRACE(std::string(to_string(scheme)) + ", layout " +
                     std::to_string(static_cast<int>(layout)) + ", " +
                     std::to_string(rows) + " rows");
        expect_outcomes_bitwise_equal(
            b.pipe->classify(x, scheme),
            reference_classify(*b.pipe, x, scheme));
      }
      for (std::size_t d = 0; d < b.pipe->detector_count(); ++d) {
        EXPECT_TRUE(floats_bitwise_equal(
            b.pipe->detector(d).scores(x),
            reference_scores(b.pipe->detector(d), x)));
      }
    }
  }
}

TEST(PassMemoIdentity, PipelineCalibrateMatchesPerDetectorCalibrate) {
  for (const Layout layout :
       {Layout::Cifar, Layout::Mnist, Layout::SplitReformer}) {
    Bank b = build_bank(layout, true);
    const Tensor val = uniform_batch(130, b.channels, 77);
    for (const float fpr : {0.01f, 0.1f, 0.5f}) {
      b.pipe->calibrate(val, fpr);
      for (std::size_t d = 0; d < b.pipe->detector_count(); ++d) {
        Detector& det = b.pipe->detector(d);
        const float shared = det.threshold();
        det.calibrate(val, fpr);
        const float alone = det.threshold();
        EXPECT_EQ(std::memcmp(&shared, &alone, sizeof(float)), 0)
            << det.name() << " fpr " << fpr;
        det.calibrate_scores(reference_scores(det, val), fpr);
        const float from_reference = det.threshold();
        EXPECT_EQ(std::memcmp(&shared, &from_reference, sizeof(float)), 0)
            << det.name() << " fpr " << fpr;
      }
    }
  }
}

}  // namespace
}  // namespace adv::magnet
