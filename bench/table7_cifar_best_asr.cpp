// Table VII: best (max over kappa) EAD attack success rate against the
// CIFAR MagNet variants (D, D+256) per decision rule and beta.
#include "bench_common.hpp"

using namespace adv;

int main() {
  const auto id = core::DatasetId::Cifar;
  core::ModelZoo zoo(core::scale_from_env());
  const auto& cfg = zoo.scale();
  std::printf("== Table VII: best EAD ASR (%%) on CIFAR-10 ==\n");
  std::printf("scale: %s\n", bench::scale_banner(cfg));
  std::printf("(paper, EN rule b=0.1: D 78.6, D+256 91.5)\n\n");

  auto d = core::build_magnet(zoo, id, core::MagnetVariant::Default);
  auto wide = core::build_magnet(zoo, id, core::MagnetVariant::Wide);
  const auto& labels = zoo.attack_set(id).labels;

  std::printf("%-8s %-8s %10s %10s\n", "rule", "beta", "D", "D+256");
  for (const auto rule :
       {attacks::DecisionRule::EN, attacks::DecisionRule::L1}) {
    for (const float beta : {1e-3f, 1e-2f, 5e-2f, 1e-1f}) {
      float best_d = 0.0f, best_w = 0.0f;
      for (const float k : cfg.kappas(id)) {
        const auto r = zoo.ead(id, beta, k, rule);
        best_d = std::max(
            best_d, 100.0f - bench::defended_accuracy_pct(
                                 *d, r, labels, magnet::DefenseScheme::Full));
        best_w = std::max(best_w,
                          100.0f - bench::defended_accuracy_pct(
                                       *wide, r, labels,
                                       magnet::DefenseScheme::Full));
      }
      std::printf("%-8s %-8g %10.1f %10.1f\n", attacks::to_string(rule),
                  static_cast<double>(beta), static_cast<double>(best_d),
                  static_cast<double>(best_w));
    }
  }
}
