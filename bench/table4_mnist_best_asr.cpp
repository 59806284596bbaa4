// Table IV: best (max over kappa) attack success rate of EAD against each
// MNIST MagNet variant, per decision rule and beta.
#include "bench_common.hpp"

using namespace adv;

int main() {
  const auto id = core::DatasetId::Mnist;
  core::ModelZoo zoo(core::scale_from_env());
  const auto& cfg = zoo.scale();
  std::printf("== Table IV: best EAD ASR (%%) on MNIST ==\n");
  std::printf("scale: %s\n", bench::scale_banner(cfg));
  std::printf("(paper, EN rule b=0.1: D 90.2, D+JSD 55.6, D+256 94.3, "
              "D+256+JSD 65.1)\n\n");

  const core::MagnetVariant variants[] = {
      core::MagnetVariant::Default, core::MagnetVariant::Jsd,
      core::MagnetVariant::Wide, core::MagnetVariant::WideJsd};
  std::vector<std::shared_ptr<magnet::MagNetPipeline>> pipes;
  for (const auto v : variants) {
    pipes.push_back(core::build_magnet(zoo, id, v));
  }
  const auto& labels = zoo.attack_set(id).labels;

  std::printf("%-8s %-8s %10s %10s %10s %12s\n", "rule", "beta", "D",
              "D+JSD", "D+256", "D+256+JSD");
  for (const auto rule :
       {attacks::DecisionRule::EN, attacks::DecisionRule::L1}) {
    for (const float beta : {1e-3f, 1e-2f, 5e-2f, 1e-1f}) {
      std::printf("%-8s %-8g", attacks::to_string(rule),
                  static_cast<double>(beta));
      for (std::size_t p = 0; p < pipes.size(); ++p) {
        float best_asr = 0.0f;
        for (const float k : cfg.kappas(id)) {
          const auto r = zoo.ead(id, beta, k, rule);
          const float asr = 100.0f - bench::defended_accuracy_pct(
                                         *pipes[p], r, labels,
                                         magnet::DefenseScheme::Full);
          best_asr = std::max(best_asr, asr);
        }
        std::printf(" %10.1f", static_cast<double>(best_asr));
        if (p == 3) std::printf("  ");
      }
      std::printf("\n");
    }
  }
}
