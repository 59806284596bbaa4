#include "attacks/ead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "attacks/engine.hpp"
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

/// Distortion of one row under a decision rule.
float rule_distance(DecisionRule rule, float beta, const float* adv,
                    const float* nat, std::size_t row) {
  double acc1 = 0.0, acc2 = 0.0;
  for (std::size_t j = 0; j < row; ++j) {
    const double d = static_cast<double>(adv[j]) - nat[j];
    acc1 += std::fabs(d);
    acc2 += d * d;
  }
  switch (rule) {
    case DecisionRule::EN: return static_cast<float>(beta * acc1 + acc2);
    case DecisionRule::L1: return static_cast<float>(acc1);
    case DecisionRule::L2: return static_cast<float>(acc2);
  }
  return 0.0f;
}

/// Elastic-net distance ||a-n||_2^2 + beta*||a-n||_1 of one row (the
/// distortion part of the early-abort objective).
float elastic_distance(float beta, const float* adv, const float* nat,
                       std::size_t row) {
  double acc1 = 0.0, acc2 = 0.0;
  for (std::size_t j = 0; j < row; ++j) {
    const double d = static_cast<double>(adv[j]) - nat[j];
    acc1 += std::fabs(d);
    acc2 += d * d;
  }
  return static_cast<float>(acc2 + beta * acc1);
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
  EngineStats stats;

  for (std::size_t bs = 0; bs < cfg.binary_search_steps; ++bs) {
    Tensor x = images;  // current iterate x^(k)
    Tensor y = images;  // FISTA auxiliary point (== x^(k) for plain ISTA)
    std::vector<bool> succeeded_this_step(n, false);
    ActiveSet rows(n);
    PlateauDetector plateau(n, cfg.abort_early_window,
                            cfg.abort_early_rel_tol);
    std::vector<std::size_t> to_retire;
    // Dense-mode weight vector: retired rows get weight 0 so their logit
    // seed is zero (their gradient rows are then exactly zero, and the
    // per-row independence of every layer keeps the active rows' gradients
    // bitwise equal to the compacted sub-batch pass).
    std::vector<float> w_dense;
    // Plain ISTA sets y^(k+1) = x^(k+1), so the candidate forward at
    // x^(k+1), run in Eval mode, is also the next iteration's gradient
    // forward: same rows, same kernels, same bits. `carried` holds it
    // across the loop edge; the next iteration then runs only the
    // backward. DESIGN.md §11 lists the cases that drop it.
    std::optional<HingeEval> carried;

    for (std::size_t k = 0;
         k < cfg.iterations && !rows.none_active(); ++k) {
      // Square-root polynomial decay of the step size (reference EAD).
      const float lr = cfg.learning_rate *
                       std::sqrt(1.0f - static_cast<float>(k) /
                                            static_cast<float>(cfg.iterations));

      // Compacted sub-batch: gather the active rows densely so the model
      // passes below are [na, ...] instead of [n, ...].
      const CompactPlan plan(rows, cfg.compact);
      const std::size_t na = plan.active();
      Tensor y_g, x0_g;
      std::vector<int> lab_g;
      std::vector<float> w_g;
      if (!plan.sub()) {
        w_dense = c;
        for (std::size_t i = 0; i < n; ++i) {
          if (!rows.active(i)) w_dense[i] = 0.0f;
        }
      }
      const Tensor& ycur = plan.pick(y, y_g);
      const Tensor& x0 = plan.pick(images, x0_g);
      const std::vector<int>& lab = plan.pick(labels, lab_g);
      const std::vector<float>& w = plan.sub() ? plan.pick(c, w_g) : w_dense;

      // Gradient of g(y) = c*f(y) + ||y - x0||_2^2 at the (FISTA) point y
      // — plus, on detector-aware targets, the c-weighted detector
      // penalty c*aux(y) (the Carlini–Wagner detector-evasion objective).
      const bool reused = carried.has_value();
      const HingeEval eval =
          reused ? *std::move(carried)
                 : eval_attack_hinge(target, ycur, lab, cfg.kappa, cfg.mode);
      carried.reset();
      Tensor grad = attack_hinge_input_gradient(target, ycur, eval, lab,
                                                cfg.kappa, w, cfg.mode);
      plan.record_passes(stats, reused ? 1 : 2);  // (forward +) backward
      if (aux) {
        const Tensor ag = target.aux_input_grad(ycur, w);
        for (std::size_t i = 0, m = grad.numel(); i < m; ++i) {
          grad[i] += ag[i];
        }
      }
      // ISTA step x^(k+1) = S_beta(y - lr * (grad + 2*(y - x0))) (paper
      // eq. (4)) as ONE pass over the batch: the regularizer-gradient
      // add, the gradient step and shrink_project used to be three
      // separate sweeps — fused_ista_step does the identical arithmetic
      // in one (bitwise identical, see attacks/fused.hpp).
      Tensor x_new;
      fused_ista_step(ycur, grad, x0, lr, cfg.beta, x_new);
      if (!plan.sub() && na < n) {
        // Freeze retired rows: their iterate must not move, so the
        // full-batch x_new gets their frozen x rows back before the
        // candidate eval and the y/x updates below.
        for (std::size_t i = 0; i < n; ++i) {
          if (rows.active(i)) continue;
          std::copy_n(x.data() + i * row, row, x_new.data() + i * row);
        }
      }

      // Candidate bookkeeping on the new iterate under every rule. Under
      // plain ISTA with an iteration to follow, the forward records the
      // target's tapes (Mode::Eval) so that iteration can reuse it;
      // otherwise it is forward-only (Mode::Infer skips the tape copies).
      const bool carry = !cfg.use_fista && k + 1 < cfg.iterations;
      HingeEval cand =
          eval_attack_hinge(target, x_new, lab, cfg.kappa, cfg.mode,
                            carry ? nn::Mode::Eval : nn::Mode::Infer);
      plan.record_passes(stats, 1);
      // Detector-aware candidates only count when they also evade the
      // detector bank (aux <= 0), and their early-abort objective tracks
      // the penalized loss.
      std::vector<float> aux_cand;
      if (aux) aux_cand = target.aux_loss(x_new);
      to_retire.clear();
      for (std::size_t a = 0; a < na; ++a) {
        const std::size_t g = plan.global(a);  // global batch row
        const std::size_t loc = plan.loc(a);   // row within the sub-batch
        const float* adv = x_new.data() + loc * row;
        const float* nat = images.data() + g * row;
        const bool evades = !aux || aux_cand[loc] <= 0.0f;
        if (attack_succeeded(cand.margin[loc], cfg.kappa) && evades) {
          succeeded_this_step[g] = true;
          for (std::size_t r = 0; r < nrules; ++r) {
            const float dist = rule_distance(rules[r], cfg.beta, adv, nat,
                                             row);
            if (dist < best_dist[r][g]) {
              best_dist[r][g] = dist;
              results[r].success[g] = true;
              std::copy_n(adv, row,
                          results[r].adversarial.data() + g * row);
            }
          }
        }
        if (plateau.enabled()) {
          // Per-row objective: c*f(x) + elastic-net distortion (plus the
          // c-weighted detector penalty on detector-aware targets).
          // Computed from bitwise-identical values in the compacted and
          // dense paths, so the retirement schedule is identical too.
          const float penalty = aux ? aux_cand[loc] : 0.0f;
          const float obj = c[g] * (cand.f[loc] + penalty) +
                            elastic_distance(cfg.beta, adv, nat, row);
          if (plateau.observe(g, obj)) to_retire.push_back(g);
        }
      }

      // FISTA / ISTA iterate updates, written back to the full-size x and
      // y. One shared per-row loop serves both paths (bitwise identity).
      const float zeta = static_cast<float>(k) / static_cast<float>(k + 3);
      for (std::size_t a = 0; a < na; ++a) {
        const std::size_t g = plan.global(a);
        const std::size_t loc = plan.loc(a);
        const float* pn = x_new.data() + loc * row;
        float* py = y.data() + g * row;
        float* px = x.data() + g * row;
        if (cfg.use_fista) {
          // y^(k+1) = x^(k+1) + k/(k+3) * (x^(k+1) - x^(k)).
          for (std::size_t d = 0; d < row; ++d) {
            py[d] = pn[d];
            py[d] += zeta * (pn[d] - px[d]);
          }
        } else {
          std::copy_n(pn, row, py);
        }
        std::copy_n(pn, row, px);
      }

      // A retirement under compaction changes the next sub-batch's
      // gather, so its gradient forward runs afresh. In dense mode a
      // retired row keeps its place (weight 0) and y still equals x_new.
      if (carry && (to_retire.empty() || !cfg.compact)) {
        carried = std::move(cand);
      }
      for (const std::size_t g : to_retire) {
        rows.retire(g);
        ++stats.rows_retired;
      }
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
  stats.flush(cfg.metrics_name);

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
