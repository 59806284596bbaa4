// Figure 2 (a-d): classification accuracy of the four MNIST MagNet
// variants against C&W-L2 and EAD (L1 and EN rules, beta = 0.1) as a
// function of the attack confidence kappa.
#include "bench_common.hpp"

using namespace adv;

int main() {
  const auto id = core::DatasetId::Mnist;
  core::ModelZoo zoo(core::scale_from_env());
  std::printf("== Figure 2: MNIST defense performance vs confidence ==\n");
  std::printf("scale: %s\n", bench::scale_banner(zoo.scale()));
  std::printf("(paper shape: C&W stays >~90%%, EAD dips far below at mid "
              "kappa)\n");
  const std::pair<core::MagnetVariant, const char*> panels[] = {
      {core::MagnetVariant::Default, "a_default"},
      {core::MagnetVariant::Jsd, "b_jsd"},
      {core::MagnetVariant::Wide, "c_256"},
      {core::MagnetVariant::WideJsd, "d_256_jsd"},
  };
  for (const auto& [variant, tag] : panels) {
    auto pipe = core::build_magnet(zoo, id, variant);
    const auto curves = bench::headline_curves(zoo, id, *pipe);
    bench::emit(std::string("Fig 2 (") + tag + ") — MagNet " +
                    core::to_string(variant) + " (accuracy %)",
                std::string("fig2_") + tag + ".csv", curves);
  }
}
