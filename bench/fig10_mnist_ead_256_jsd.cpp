// Figure 10: EAD vs the robust MNIST MagNet with widened auto-encoders
// AND two extra JSD detectors.
#include "ead_ablation_common.hpp"
int main() {
  adv::core::ModelZoo zoo(adv::core::scale_from_env());
  adv::bench::run_ead_ablation_figure(zoo, "10", adv::core::DatasetId::Mnist,
                                      adv::core::MagnetVariant::WideJsd);
}
