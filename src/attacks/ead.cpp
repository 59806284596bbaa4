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

/// (sum |d|, sum d^2) of one row's perturbation d = adv - nat: the one
/// sweep every decision rule and the early-abort objective read.
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
  EngineStats stats;

  for (std::size_t bs = 0; bs < cfg.binary_search_steps; ++bs) {
    Tensor x = images;  // current iterate x^(k)
    Tensor y = images;  // FISTA auxiliary point (== x^(k) for plain ISTA)
    std::vector<bool> succeeded_this_step(n, false);
    ActiveSet rows(n);
    PlateauDetector plateau(n, cfg.abort_early_window,
                            cfg.abort_early_rel_tol);
    std::vector<std::size_t> to_retire;
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

      // Compacted sub-batch: the model passes below run on the active
      // rows only, [na, ...] instead of [n, ...]; row a is global row
      // idx[a].
      const std::vector<std::size_t>& idx = rows.indices();
      const std::size_t na = idx.size();
      Tensor y_g, x0_g;
      std::vector<int> lab_g;
      std::vector<float> w_g;
      const Tensor& ycur = rows.pick(y, y_g);
      const Tensor& x0 = rows.pick(images, x0_g);
      const std::vector<int>& lab = rows.pick(labels, lab_g);
      const std::vector<float>& w = rows.pick(c, w_g);

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
      rows.record_passes(stats, reused ? 1 : 2);  // (forward +) backward
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

      // Candidate bookkeeping on the new iterate under every rule. Under
      // plain ISTA with an iteration to follow, the forward records the
      // target's tapes (Mode::Eval) so that iteration can reuse it;
      // otherwise it is forward-only (Mode::Infer skips the tape copies).
      const bool carry = !cfg.use_fista && k + 1 < cfg.iterations;
      HingeEval cand =
          eval_attack_hinge(target, x_new, lab, cfg.kappa, cfg.mode,
                            carry ? nn::Mode::Eval : nn::Mode::Infer);
      rows.record_passes(stats, 1);
      // Detector-aware candidates only count when they also evade the
      // detector bank (aux <= 0), and their early-abort objective tracks
      // the penalized loss.
      std::vector<float> aux_cand;
      if (aux) aux_cand = target.aux_loss(x_new);
      to_retire.clear();
      for (std::size_t a = 0; a < na; ++a) {
        const std::size_t g = idx[a];  // global batch row
        const float* adv = x_new.data() + a * row;
        const float* nat = images.data() + g * row;
        const bool evades = !aux || aux_cand[a] <= 0.0f;
        const bool succeeded =
            attack_succeeded(cand.margin[a], cfg.kappa) && evades;
        if (!succeeded && !plateau.enabled()) continue;
        const RowDistortion dist = row_distortion(adv, nat, row);
        if (succeeded) {
          succeeded_this_step[g] = true;
          for (std::size_t r = 0; r < nrules; ++r) {
            const float d = rule_distance(rules[r], cfg.beta, dist);
            if (d < best_dist[r][g]) {
              best_dist[r][g] = d;
              results[r].success[g] = true;
              std::copy_n(adv, row,
                          results[r].adversarial.data() + g * row);
            }
          }
        }
        if (plateau.enabled()) {
          // Per-row objective: c*f(x) + elastic-net distortion (plus the
          // c-weighted detector penalty on detector-aware targets).
          const float penalty = aux ? aux_cand[a] : 0.0f;
          const float obj =
              c[g] * (cand.f[a] + penalty) +
              rule_distance(DecisionRule::EN, cfg.beta, dist);
          if (plateau.observe(g, obj)) to_retire.push_back(g);
        }
      }

      // FISTA / ISTA iterate updates, written back to the full-size x and
      // y.
      const float zeta = static_cast<float>(k) / static_cast<float>(k + 3);
      for (std::size_t a = 0; a < na; ++a) {
        const std::size_t g = idx[a];
        const float* pn = x_new.data() + a * row;
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

      // A retirement changes the next sub-batch's gather, so its gradient
      // forward runs afresh.
      if (carry && to_retire.empty()) carried = std::move(cand);
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
