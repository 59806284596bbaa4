// Figure 5: C&W-L2 attack vs the CIFAR MagNet variants with the
// defense-scheme ablation.
#include "bench_common.hpp"

using namespace adv;

int main() {
  const auto id = core::DatasetId::Cifar;
  core::ModelZoo zoo(core::scale_from_env());
  std::printf("== Figure 5: C&W ablation on CIFAR ==\n");
  std::printf("scale: %s\n", bench::scale_banner(zoo.scale()));
  const std::pair<core::MagnetVariant, const char*> panels[] = {
      {core::MagnetVariant::Default, "a_default"},
      {core::MagnetVariant::Wide, "b_256"},
  };
  for (const auto& [variant, tag] : panels) {
    auto pipe = core::build_magnet(zoo, id, variant);
    const auto curves = bench::scheme_ablation_curves(
        zoo, id, *pipe, [&](float k) { return zoo.cw(id, k); });
    bench::emit(std::string("Fig 5 (") + tag + ") — C&W vs MagNet " +
                    core::to_string(variant) + " (accuracy %)",
                std::string("fig5_") + tag + ".csv", curves);
  }
}
