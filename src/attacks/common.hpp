// Shared attack infrastructure.
//
// All attacks here are *untargeted, white-box against an AttackTarget*
// (attacks/target.hpp): the paper's oblivious threat model wraps the
// bare classifier, the gray-box / detector-aware models wrap the
// defended composition. The target must output raw logits; the bare
// classifier is reached through an ObliviousTarget.
#pragma once

#include <string>
#include <vector>

#include "attacks/target.hpp"
#include "tensor/tensor.hpp"

namespace adv::attacks {

struct AttackResult {
  /// Final adversarial examples, one row per input. Where the attack
  /// failed, the row holds the unmodified natural image.
  Tensor adversarial;
  /// Per-row success on the attack target at the requested confidence
  /// (for detector-aware targets this additionally requires evading the
  /// auxiliary detector terms).
  std::vector<bool> success;
  /// Distortion of the chosen example vs the natural image (valid
  /// everywhere; zero where the attack failed).
  std::vector<float> l1, l2, linf;

  std::size_t success_count() const;
  float success_rate() const;
  /// Mean distortion over *successful* rows only (paper Table I).
  float mean_l1_over_success() const;
  float mean_l2_over_success() const;
};

/// Attack goal. Untargeted minimizes the paper's eq. (3) hinge (push the
/// prediction AWAY from the true label t0); Targeted minimizes eq. (2)
/// (pull the prediction TOWARD a chosen label t).
enum class HingeMode { Untargeted, Targeted };

/// Evaluation of the hinge attack loss on a batch. `margin` is oriented
/// so that in BOTH modes margin >= kappa means "attack goal met with
/// confidence kappa":
///   untargeted: margin = max_{j != t0} z_j - z_{t0}
///   targeted:   margin = z_t - max_{j != t} z_j
/// and f = max(-margin, -kappa) is the paper's loss in both cases.
struct HingeEval {
  Tensor logits;              // [N, K]
  std::vector<float> margin;  // goal-oriented margin per row
  std::vector<float> f;       // hinge value per row
};

/// Forward pass + hinge statistics. In untargeted mode `labels` are the
/// ORIGINAL labels t0; in targeted mode they are the TARGET labels t.
/// `forward_mode` defaults to Eval (differentiable); pass nn::Mode::Infer
/// for forward-only scoring (candidate/success checks) — it records no
/// tape, so an attack_hinge_input_gradient call differentiates the last
/// Eval forward, not this one.
HingeEval eval_attack_hinge(AttackTarget& target, const Tensor& batch,
                            const std::vector<int>& labels, float kappa,
                            HingeMode mode,
                            nn::Mode forward_mode = nn::Mode::Eval);

/// Untargeted convenience wrappers (paper eq. (3)).
HingeEval eval_untargeted_hinge(AttackTarget& target, const Tensor& batch,
                                const std::vector<int>& labels, float kappa,
                                nn::Mode forward_mode = nn::Mode::Eval);

/// Builds the logit-space gradient seed of sum_i weight[i] * f_i and
/// backpropagates it, returning d/d(batch). Rows whose hinge is inactive
/// (margin >= kappa) contribute zero. Must follow the forward pass made by
/// eval_attack_hinge on the same batch in Eval mode. `batch` is passed
/// because composed targets backpropagate through more than one model.
Tensor attack_hinge_input_gradient(AttackTarget& target, const Tensor& batch,
                                   const HingeEval& eval,
                                   const std::vector<int>& labels,
                                   float kappa,
                                   const std::vector<float>& weight,
                                   HingeMode mode);

/// Untargeted convenience wrappers.
Tensor hinge_input_gradient(AttackTarget& target, const Tensor& batch,
                            const HingeEval& eval,
                            const std::vector<int>& labels, float kappa,
                            const std::vector<float>& weight);

/// margin >= kappa, i.e. the example is misclassified with the requested
/// confidence gap (the EAD/C&W success criterion).
bool attack_succeeded(float margin, float kappa);

/// Fills result.l1/l2/linf from (adversarial - natural).
void fill_distortions(AttackResult& result, const Tensor& natural);

/// Result of an attack whose final iterate `x` is scored once (FGSM,
/// DeepFool): `success[i]` says whether row i fools the classifier. On
/// detector-aware targets a row must also evade the detectors (aux <= 0)
/// to count. Failed rows get their natural image back, so the distortion
/// stats stay honest.
AttackResult finish_result(AttackTarget& target, Tensor x,
                           std::vector<bool> success, const Tensor& natural);

}  // namespace adv::attacks
