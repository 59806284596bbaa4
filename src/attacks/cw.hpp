// Carlini & Wagner's L2 attack (S&P'17), realized as the beta = 0 special
// case of EAD (the reproduced paper's §II-B makes this identification
// explicit: with beta = 0 the shrinkage operator degenerates to the box
// projection and the objective is c*f(x) + ||x - x0||_2^2).
#pragma once

#include "attacks/ead.hpp"

namespace adv::attacks {

struct CwL2Config {
  float kappa = 0.0f;
  std::size_t iterations = 1000;
  std::size_t binary_search_steps = 9;
  float initial_c = 1e-3f;
  float learning_rate = 1e-2f;
};

/// Untargeted C&W L2 attack against `target` (any threat model; the
/// detector-aware behavior is inherited from the shared EAD engine).
AttackResult cw_l2_attack(AttackTarget& target, const Tensor& images,
                          const std::vector<int>& labels,
                          const CwL2Config& cfg);

/// Oblivious-threat-model wrapper: identical to running against an
/// ObliviousTarget over `model`.
AttackResult cw_l2_attack(nn::Sequential& model, const Tensor& images,
                          const std::vector<int>& labels,
                          const CwL2Config& cfg);

}  // namespace adv::attacks
