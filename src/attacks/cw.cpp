#include "attacks/cw.hpp"

namespace adv::attacks {

namespace {

EadConfig to_ead(const CwL2Config& cfg) {
  EadConfig ead;
  ead.beta = 0.0f;  // pure L2: shrinkage becomes plain box projection
  ead.kappa = cfg.kappa;
  ead.iterations = cfg.iterations;
  ead.binary_search_steps = cfg.binary_search_steps;
  ead.initial_c = cfg.initial_c;
  ead.learning_rate = cfg.learning_rate;
  ead.rule = DecisionRule::L2;
  return ead;
}

}  // namespace

AttackResult cw_l2_attack(AttackTarget& target, const Tensor& images,
                          const std::vector<int>& labels,
                          const CwL2Config& cfg) {
  return ead_attack(target, images, labels, to_ead(cfg));
}

AttackResult cw_l2_attack(nn::Sequential& model, const Tensor& images,
                          const std::vector<int>& labels,
                          const CwL2Config& cfg) {
  return ead_attack(model, images, labels, to_ead(cfg));
}

}  // namespace adv::attacks
