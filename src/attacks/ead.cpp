#include "attacks/ead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "attacks/fused.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {

const char* to_string(DecisionRule r) {
  switch (r) {
    case DecisionRule::EN: return "EN";
    case DecisionRule::L1: return "L1";
    case DecisionRule::L2: return "L2";
  }
  return "?";
}

void shrink_project(const Tensor& z, const Tensor& x0, float beta,
                    Tensor& out) {
  if (!z.same_shape(x0)) {
    throw std::invalid_argument("shrink_project: shape mismatch");
  }
  if (!out.same_shape(z)) out = Tensor(z.shape());
  const float* pz = z.data();
  const float* p0 = x0.data();
  float* po = out.data();
  for (std::size_t i = 0, n = z.numel(); i < n; ++i) {
    const float diff = pz[i] - p0[i];
    if (diff > beta) {
      po[i] = std::min(pz[i] - beta, 1.0f);
    } else if (diff < -beta) {
      po[i] = std::max(pz[i] + beta, 0.0f);
    } else {
      po[i] = p0[i];
    }
  }
}

namespace {

/// (sum |d|, sum d^2) of one row's perturbation d = adv - nat: the one
/// sweep every decision rule reads.
struct RowDistortion {
  double l1 = 0.0;
  double l2sq = 0.0;
};

RowDistortion row_distortion(const float* adv, const float* nat,
                             std::size_t row) {
  RowDistortion out;
  for (std::size_t j = 0; j < row; ++j) {
    const double d = static_cast<double>(adv[j]) - nat[j];
    out.l1 += std::fabs(d);
    out.l2sq += d * d;
  }
  return out;
}

/// Distortion of one row under a decision rule (EN is the elastic-net
/// distance beta*||d||_1 + ||d||_2^2).
float rule_distance(DecisionRule rule, float beta, const RowDistortion& d) {
  switch (rule) {
    case DecisionRule::EN: return static_cast<float>(beta * d.l1 + d.l2sq);
    case DecisionRule::L1: return static_cast<float>(d.l1);
    case DecisionRule::L2: return static_cast<float>(d.l2sq);
  }
  return 0.0f;
}

}  // namespace

std::vector<AttackResult> ead_attack_multi(
    AttackTarget& target, const Tensor& images,
    const std::vector<int>& labels, const EadConfig& cfg,
    std::span<const DecisionRule> rules) {
  if (images.rank() == 0 || images.dim(0) != labels.size()) {
    throw std::invalid_argument("ead_attack: image/label count mismatch");
  }
  if (cfg.iterations == 0 || cfg.binary_search_steps == 0) {
    throw std::invalid_argument(
        "ead_attack: iterations and search steps must be > 0");
  }
  if (rules.empty()) {
    throw std::invalid_argument("ead_attack_multi: no decision rules");
  }
  const std::size_t n = images.dim(0);
  const std::size_t row = images.numel() / n;
  const std::size_t nrules = rules.size();
  const bool aux = target.has_aux();

  std::vector<AttackResult> results(nrules);
  std::vector<std::vector<float>> best_dist(nrules);
  for (std::size_t r = 0; r < nrules; ++r) {
    results[r].adversarial = images;  // failed rows stay natural
    results[r].success.assign(n, false);
    best_dist[r].assign(n, std::numeric_limits<float>::infinity());
  }

  std::vector<float> c(n, cfg.initial_c);
  std::vector<float> lower(n, 0.0f);
  std::vector<float> upper(n, 1e10f);

  for (std::size_t bs = 0; bs < cfg.binary_search_steps; ++bs) {
    Tensor x = images;  // current iterate x^(k)
    Tensor x_new;       // next iterate x^(k+1); swapped into x
    std::vector<bool> succeeded_this_step(n, false);
    // Plain ISTA takes its next gradient at x^(k+1) itself, so the
    // candidate forward at x^(k+1), run in Eval mode, is also the next
    // iteration's gradient forward: same rows, same kernels, same bits.
    // `carried` holds it across the loop edge; the next iteration then
    // runs only the backward. Only the first iteration of a step runs a
    // gradient forward of its own (DESIGN.md §11).
    std::optional<HingeEval> carried;

    for (std::size_t k = 0; k < cfg.iterations; ++k) {
      // Square-root polynomial decay of the step size (reference EAD).
      const float lr = cfg.learning_rate *
                       std::sqrt(1.0f - static_cast<float>(k) /
                                            static_cast<float>(cfg.iterations));

      // Gradient of g(x) = c*f(x) + ||x - x0||_2^2 at the iterate x — plus,
      // on detector-aware targets, the c-weighted detector penalty
      // c*aux(x) (the Carlini–Wagner detector-evasion objective).
      const HingeEval eval =
          carried ? *std::move(carried)
                  : eval_attack_hinge(target, x, labels, cfg.kappa, cfg.mode);
      carried.reset();
      Tensor grad = attack_hinge_input_gradient(target, x, eval, labels,
                                                cfg.kappa, c, cfg.mode);
      if (aux) {
        const Tensor ag = target.aux_input_grad(x, c);
        for (std::size_t i = 0, m = grad.numel(); i < m; ++i) {
          grad[i] += ag[i];
        }
      }
      // ISTA step x^(k+1) = S_beta(x - lr * (grad + 2*(x - x0))) (paper
      // eq. (4)) as ONE pass over the batch: the regularizer-gradient
      // add, the gradient step and shrink_project used to be three
      // separate sweeps — fused_ista_step does the identical arithmetic
      // in one (bitwise identical, see attacks/fused.hpp).
      fused_ista_step(x, grad, images, lr, cfg.beta, x_new);

      // Candidate bookkeeping on the new iterate under every rule. With
      // an iteration to follow, the forward records the target's tapes
      // (Mode::Eval) so that iteration can reuse it; the last one is
      // forward-only (Mode::Infer skips the tape copies).
      const bool carry = k + 1 < cfg.iterations;
      HingeEval cand =
          eval_attack_hinge(target, x_new, labels, cfg.kappa, cfg.mode,
                            carry ? nn::Mode::Eval : nn::Mode::Infer);
      // Detector-aware candidates only count when they also evade the
      // detector bank (aux <= 0).
      std::vector<float> aux_cand;
      if (aux) aux_cand = target.aux_loss(x_new);
      for (std::size_t i = 0; i < n; ++i) {
        const bool evades = !aux || aux_cand[i] <= 0.0f;
        if (!evades || !attack_succeeded(cand.margin[i], cfg.kappa)) continue;
        succeeded_this_step[i] = true;
        const float* adv = x_new.data() + i * row;
        const RowDistortion dist =
            row_distortion(adv, images.data() + i * row, row);
        for (std::size_t r = 0; r < nrules; ++r) {
          const float d = rule_distance(rules[r], cfg.beta, dist);
          if (d < best_dist[r][i]) {
            best_dist[r][i] = d;
            results[r].success[i] = true;
            std::copy_n(adv, row, results[r].adversarial.data() + i * row);
          }
        }
      }

      std::swap(x, x_new);
      if (carry) carried = std::move(cand);
    }

    // Per-image binary search over c (standard C&W/EAD schedule).
    for (std::size_t i = 0; i < n; ++i) {
      if (succeeded_this_step[i]) {
        upper[i] = std::min(upper[i], c[i]);
        c[i] = 0.5f * (lower[i] + upper[i]);
      } else {
        lower[i] = std::max(lower[i], c[i]);
        c[i] = upper[i] < 1e9f ? 0.5f * (lower[i] + upper[i]) : c[i] * 10.0f;
      }
    }
  }

  for (std::size_t r = 0; r < nrules; ++r) {
    fill_distortions(results[r], images);
  }
  return results;
}

std::vector<AttackResult> ead_attack_multi(
    nn::Sequential& model, const Tensor& images,
    const std::vector<int>& labels, const EadConfig& cfg,
    std::span<const DecisionRule> rules) {
  ObliviousTarget target(model);
  return ead_attack_multi(target, images, labels, cfg, rules);
}

AttackResult ead_attack(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels,
                        const EadConfig& cfg) {
  const DecisionRule rules[1] = {cfg.rule};
  std::vector<AttackResult> results =
      ead_attack_multi(target, images, labels, cfg, rules);
  return std::move(results.front());
}

AttackResult ead_attack(nn::Sequential& model, const Tensor& images,
                        const std::vector<int>& labels,
                        const EadConfig& cfg) {
  ObliviousTarget target(model);
  return ead_attack(target, images, labels, cfg);
}

}  // namespace adv::attacks
