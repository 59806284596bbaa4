// Figure 13: default CIFAR MagNet with auto-encoders trained under MSE vs
// MAE reconstruction loss.
#include "bench_common.hpp"

using namespace adv;

int main() {
  const auto id = core::DatasetId::Cifar;
  core::ModelZoo zoo(core::scale_from_env());
  std::printf("== Figure 13: AE reconstruction-loss ablation on CIFAR ==\n");
  std::printf("scale: %s\n", bench::scale_banner(zoo.scale()));
  const auto& kappas = zoo.scale().kappas(id);
  const auto& labels = zoo.attack_set(id).labels;
  const std::pair<magnet::ReconLoss, const char*> panels[] = {
      {magnet::ReconLoss::Mse, "a_mse"},
      {magnet::ReconLoss::Mae, "b_mae"},
  };
  for (const auto& [loss, tag] : panels) {
    auto pipe =
        core::build_magnet(zoo, id, core::MagnetVariant::Default, loss);
    std::vector<core::SweepCurve> curves(5);
    curves[0].name = "C&W-L2";
    curves[1].name = "EAD-L1 b=1e-3";
    curves[2].name = "EAD-L1 b=1e-1";
    curves[3].name = "EAD-EN b=1e-3";
    curves[4].name = "EAD-EN b=1e-1";
    for (const float k : kappas) {
      const attacks::AttackResult rs[5] = {
          zoo.cw(id, k),
          zoo.ead(id, 1e-3f, k, attacks::DecisionRule::L1),
          zoo.ead(id, 1e-1f, k, attacks::DecisionRule::L1),
          zoo.ead(id, 1e-3f, k, attacks::DecisionRule::EN),
          zoo.ead(id, 1e-1f, k, attacks::DecisionRule::EN)};
      for (std::size_t c = 0; c < 5; ++c) {
        curves[c].kappas.push_back(k);
        curves[c].accuracy_pct.push_back(bench::defended_accuracy_pct(
            *pipe, rs[c], labels, magnet::DefenseScheme::Full));
      }
    }
    bench::emit(std::string("Fig 13 (") + tag + ") (accuracy %)",
                std::string("fig13_") + tag + ".csv", curves);
  }
}
