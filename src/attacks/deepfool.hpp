// DeepFool (Moosavi-Dezfooli et al., CVPR'16): iterative minimal-L2
// untargeted attack; another baseline the paper lists among attacks MagNet
// defends.
#pragma once

#include "attacks/common.hpp"

namespace adv::attacks {

struct DeepFoolConfig {
  std::size_t max_iterations = 30;
  float overshoot = 0.02f;  // eta: multiplicative overshoot per step
};

/// DeepFool against `target`. The linearized boundary search has no loss
/// term to fold a detector penalty into, so auxiliary objective terms on
/// detector-aware targets only tighten the success criterion (the crafted
/// example must evade the detector bank), not the geometry of the steps.
/// Already-fooled rows retire from the active set (attacks/engine.hpp):
/// they drop out of the per-iteration forward and the K per-class
/// backwards.
AttackResult deepfool_attack(AttackTarget& target, const Tensor& images,
                             const std::vector<int>& labels,
                             const DeepFoolConfig& cfg);

/// Oblivious-threat-model wrapper: identical to running against an
/// ObliviousTarget over `model`.
AttackResult deepfool_attack(nn::Sequential& model, const Tensor& images,
                             const std::vector<int>& labels,
                             const DeepFoolConfig& cfg);

}  // namespace adv::attacks
