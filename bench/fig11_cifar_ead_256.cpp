// Figure 11: EAD vs the robust CIFAR MagNet with widened auto-encoders.
#include "ead_ablation_common.hpp"
int main() {
  adv::core::ModelZoo zoo(adv::core::scale_from_env());
  adv::bench::run_ead_ablation_figure(zoo, "11", adv::core::DatasetId::Cifar,
                                      adv::core::MagnetVariant::Wide);
}
