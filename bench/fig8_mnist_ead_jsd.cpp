// Figure 8: EAD vs the robust MNIST MagNet with two extra JSD detectors.
#include "ead_ablation_common.hpp"
int main() {
  adv::core::ModelZoo zoo(adv::core::scale_from_env());
  adv::bench::run_ead_ablation_figure(zoo, "8", adv::core::DatasetId::Mnist,
                                      adv::core::MagnetVariant::Jsd);
}
