// Figure 4: C&W-L2 attack vs the four MNIST MagNet variants, with the
// defense-scheme ablation (no defense / detector / reformer / both).
#include "bench_common.hpp"

using namespace adv;

int main() {
  const auto id = core::DatasetId::Mnist;
  core::ModelZoo zoo(core::scale_from_env());
  std::printf("== Figure 4: C&W ablation on MNIST ==\n");
  std::printf("scale: %s\n", bench::scale_banner(zoo.scale()));
  const std::pair<core::MagnetVariant, const char*> panels[] = {
      {core::MagnetVariant::Default, "a_default"},
      {core::MagnetVariant::Jsd, "b_jsd"},
      {core::MagnetVariant::Wide, "c_256"},
      {core::MagnetVariant::WideJsd, "d_256_jsd"},
  };
  for (const auto& [variant, tag] : panels) {
    auto pipe = core::build_magnet(zoo, id, variant);
    const auto curves = bench::scheme_ablation_curves(
        zoo, id, *pipe, [&](float k) { return zoo.cw(id, k); });
    bench::emit(std::string("Fig 4 (") + tag + ") — C&W vs MagNet " +
                    core::to_string(variant) + " (accuracy %)",
                std::string("fig4_") + tag + ".csv", curves);
  }
}
