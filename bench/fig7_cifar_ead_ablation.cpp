// Figure 7: EAD (beta x decision rule) vs the DEFAULT MagNet on CIFAR-10,
// with the defense-scheme ablation.
#include "ead_ablation_common.hpp"
int main() {
  adv::core::ModelZoo zoo(adv::core::scale_from_env());
  adv::bench::run_ead_ablation_figure(zoo, "7", adv::core::DatasetId::Cifar,
                                      adv::core::MagnetVariant::Default);
}
