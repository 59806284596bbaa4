// Figure 3 (a-b): classification accuracy of the CIFAR MagNet variants
// (default, D+256) against C&W-L2 and EAD (beta = 0.1) vs confidence.
#include "bench_common.hpp"

using namespace adv;

int main() {
  const auto id = core::DatasetId::Cifar;
  core::ModelZoo zoo(core::scale_from_env());
  std::printf("== Figure 3: CIFAR defense performance vs confidence ==\n");
  std::printf("scale: %s\n", bench::scale_banner(zoo.scale()));
  const std::pair<core::MagnetVariant, const char*> panels[] = {
      {core::MagnetVariant::Default, "a_default"},
      {core::MagnetVariant::Wide, "b_256"},
  };
  for (const auto& [variant, tag] : panels) {
    auto pipe = core::build_magnet(zoo, id, variant);
    const auto curves = bench::headline_curves(zoo, id, *pipe);
    bench::emit(std::string("Fig 3 (") + tag + ") — MagNet " +
                    core::to_string(variant) + " (accuracy %)",
                std::string("fig3_") + tag + ".csv", curves);
  }
}
