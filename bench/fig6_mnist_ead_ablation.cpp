// Figure 6: EAD (beta x decision rule) vs the DEFAULT MagNet on MNIST,
// with the defense-scheme ablation.
#include "ead_ablation_common.hpp"
int main() {
  adv::core::ModelZoo zoo(adv::core::scale_from_env());
  adv::bench::run_ead_ablation_figure(zoo, "6", adv::core::DatasetId::Mnist,
                                      adv::core::MagnetVariant::Default);
}
