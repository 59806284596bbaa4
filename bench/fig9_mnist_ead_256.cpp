// Figure 9: EAD vs the robust MNIST MagNet with widened auto-encoders
// (the paper's 256-filter variant).
#include "ead_ablation_common.hpp"
int main() {
  adv::core::ModelZoo zoo(adv::core::scale_from_env());
  adv::bench::run_ead_ablation_figure(zoo, "9", adv::core::DatasetId::Mnist,
                                      adv::core::MagnetVariant::Wide);
}
