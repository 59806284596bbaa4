// detector_calibration: shows how MagNet's detector thresholds are chosen
// and what they cost — sweeps the false-positive rate and reports, for
// each detector, the threshold, the clean-accuracy cost, and the
// detection rate on a batch of EAD adversarial examples.
//
// This is the knob the paper's "robust MagNet" discussion turns: a lower
// fpr keeps more clean accuracy but lets more adversarial examples
// through.
#include <cstdio>
#include <vector>

#include "core/evaluation.hpp"
#include "core/magnet_factory.hpp"
#include "core/model_zoo.hpp"
#include "core/roc.hpp"

int main() {
  using namespace adv;

  core::ScaleConfig cfg = core::scale_from_env();
  cfg.full = false;
  cfg.train_count = 1500;
  cfg.val_count = 400;
  cfg.test_count = 500;
  cfg.attack_count = 40;
  cfg.attack_iterations = 64;
  cfg.binary_search_steps = 3;
  cfg.cache_dir = cfg.cache_dir / "calibration";
  core::ModelZoo zoo(cfg);
  const auto id = core::DatasetId::Mnist;

  const auto& ds = zoo.dataset(id);
  const auto& aset = zoo.attack_set(id);
  const attacks::AttackResult ead =
      zoo.ead(id, 0.1f, 10.0f, attacks::DecisionRule::EN);
  std::printf("EAD (beta=0.1, kappa=10) undefended ASR: %.0f%%\n\n",
              100.0 * ead.success_rate());

  // Thresholds depend only on the clean validation scores, so the bank
  // scores the validation set once (one shared pass per model) and every
  // fpr's thresholds are set from those scores.
  auto pipe = core::build_magnet(zoo, id, core::MagnetVariant::Default);
  std::vector<std::vector<float>> val_scores;
  {
    magnet::PassMemo memo(ds.val.images);
    for (std::size_t i = 0; i < pipe->detector_count(); ++i) {
      val_scores.push_back(pipe->detector(i).scores_from(memo));
    }
  }

  std::printf("%-8s  %-22s  %-22s  %-14s  %-12s\n", "fpr",
              "thr(recon-L2, deep AE)", "thr(recon-L1, shallow)",
              "clean acc (%)", "EAD det (%)");
  for (const float fpr : {0.001f, 0.005f, 0.01f, 0.02f, 0.05f, 0.1f}) {
    for (std::size_t i = 0; i < pipe->detector_count(); ++i) {
      pipe->detector(i).calibrate_scores(val_scores[i], fpr);
    }
    const float clean =
        100.0f * pipe->clean_accuracy(ds.test.images, ds.test.labels);
    const core::DefenseEval e =
        core::evaluate_defense(*pipe, ead.adversarial, aset.labels,
                               magnet::DefenseScheme::DetectorOnly);
    std::printf("%-8g  %-22.5f  %-22.5f  %-14.1f  %-12.1f\n",
                static_cast<double>(fpr),
                static_cast<double>(pipe->detector(0).threshold()),
                static_cast<double>(pipe->detector(1).threshold()),
                static_cast<double>(clean),
                static_cast<double>(100.0f * e.detection_rate));
  }
  // Threshold-free view: per-detector ROC AUC for C&W vs EAD examples.
  // The paper's claim in one number per cell: every detector separates
  // C&W's L2 examples from clean data better than EAD's L1 examples.
  const attacks::AttackResult cw = zoo.cw(id, 10.0f);
  std::printf("\nDetector ROC AUC (clean vs adversarial scores, kappa=10):\n");
  std::printf("%-24s  %-10s  %-10s\n", "detector", "C&W", "EAD");
  for (std::size_t i = 0; i < pipe->detector_count(); ++i) {
    auto& det = pipe->detector(i);
    const auto clean_scores = det.scores(ds.test.images);
    const float auc_cw = core::roc_auc(clean_scores,
                                       det.scores(cw.adversarial));
    const float auc_ead = core::roc_auc(clean_scores,
                                        det.scores(ead.adversarial));
    std::printf("%-24s  %-10.3f  %-10.3f\n", det.name().c_str(),
                static_cast<double>(auc_cw), static_cast<double>(auc_ead));
  }
  std::printf(
      "\nLower fpr keeps clean accuracy but weakens detection — the paper's\n"
      "point is that NO threshold separates EAD's L1 examples from clean "
      "data\nas cleanly as it separates C&W's L2 examples.\n");
  return 0;
}
