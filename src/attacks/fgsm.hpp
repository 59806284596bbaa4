// FGSM and iterative FGSM (Goodfellow et al.'15; Kurakin et al.'16) —
// L-infinity baselines the paper cites as attacks MagNet defends.
#pragma once

#include "attacks/common.hpp"

namespace adv::attacks {

struct FgsmConfig {
  float epsilon = 0.1f;      // L-inf budget in [0,1] pixel space
  std::size_t iterations = 1; // 1 = one-shot FGSM; >1 = I-FGSM with step eps/T
};

/// Untargeted (I-)FGSM: ascend the cross-entropy loss of the true label
/// through `target`. On detector-aware targets the auxiliary detector
/// penalty is descended alongside (the sign step follows the combined
/// gradient) and success additionally requires evading the detectors.
/// Rows retire from the active set (attacks/engine.hpp) at their fixed
/// point: the sign-step update is a deterministic per-row map, so a row
/// the step leaves bitwise unchanged can never move again.
AttackResult fgsm_attack(AttackTarget& target, const Tensor& images,
                         const std::vector<int>& labels,
                         const FgsmConfig& cfg);

/// Oblivious-threat-model wrapper: identical to running against an
/// ObliviousTarget over `model`.
AttackResult fgsm_attack(nn::Sequential& model, const Tensor& images,
                         const std::vector<int>& labels,
                         const FgsmConfig& cfg);

}  // namespace adv::attacks
