// EAD: Elastic-net Attacks to DNNs (Chen et al., AAAI'18), the L1-based
// attack the reproduced paper uses to bypass MagNet.
//
// Solves (paper eq. (1), untargeted form):
//   min_x  c * f(x) + ||x - x0||_2^2 + beta * ||x - x0||_1   s.t. x in [0,1]^p
// via plain ISTA iterations (eq. (4)) with the pixel-wise projected
// shrinkage-thresholding operator S_beta (eq. (5)), per-image binary
// search over c, and the EN / L1 decision rules for selecting the final
// adversarial example. Every row runs the full iteration budget of every
// search step. C&W's L2 attack is the beta = 0 special case.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attacks/common.hpp"

namespace adv::attacks {

/// Rule for choosing the best successful iterate (paper §III-A).
enum class DecisionRule {
  EN,  // minimize beta*||d||_1 + ||d||_2^2
  L1,  // minimize ||d||_1
  L2,  // minimize ||d||_2 (used by the C&W special case)
};

const char* to_string(DecisionRule r);

struct EadConfig {
  float beta = 1e-2f;       // L1 regularization (paper sweeps 1e-3..1e-1)
  float kappa = 0.0f;       // confidence; success needs margin >= kappa
  std::size_t iterations = 1000;
  std::size_t binary_search_steps = 9;
  float initial_c = 1e-3f;  // paper: binary search starts from 0.001
  float learning_rate = 1e-2f;
  DecisionRule rule = DecisionRule::EN;
  // Untargeted uses the paper's eq. (3) loss with `labels` = true labels;
  // Targeted uses eq. (2) with `labels` = desired target labels.
  HingeMode mode = HingeMode::Untargeted;
};

/// Runs batched EAD against `target` (logit outputs). In untargeted mode
/// `labels` are the true labels of `images` (every image is assumed
/// correctly classified — the paper attacks only such images); in
/// targeted mode they are the attack targets. On detector-aware targets
/// the c-weighted detector penalty joins the objective (the
/// Carlini–Wagner detector-evasion formulation) and a candidate only
/// counts as successful when it also evades the detector bank.
AttackResult ead_attack(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels, const EadConfig& cfg);

/// Oblivious-threat-model wrapper: identical to running against an
/// ObliviousTarget over `model`.
AttackResult ead_attack(nn::Sequential& model, const Tensor& images,
                        const std::vector<int>& labels, const EadConfig& cfg);

/// Same optimization run, but selects the best successful iterate under
/// EVERY rule in `rules` simultaneously (cfg.rule is ignored). The paper
/// reports the EN and L1 decision rules for identical attack settings, so
/// sharing one run halves attack compute. Result i corresponds to rules[i].
std::vector<AttackResult> ead_attack_multi(AttackTarget& target,
                                           const Tensor& images,
                                           const std::vector<int>& labels,
                                           const EadConfig& cfg,
                                           std::span<const DecisionRule> rules);
std::vector<AttackResult> ead_attack_multi(nn::Sequential& model,
                                           const Tensor& images,
                                           const std::vector<int>& labels,
                                           const EadConfig& cfg,
                                           std::span<const DecisionRule> rules);

/// The pixel-wise projected shrinkage-thresholding operator S_beta
/// (paper eq. (5)), applied elementwise relative to the natural image x0.
/// Exposed for tests: z, x0 and out must have identical shapes.
void shrink_project(const Tensor& z, const Tensor& x0, float beta,
                    Tensor& out);

}  // namespace adv::attacks
