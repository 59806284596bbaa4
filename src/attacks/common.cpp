#include "attacks/common.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace adv::attacks {

std::size_t AttackResult::success_count() const {
  return static_cast<std::size_t>(
      std::count(success.begin(), success.end(), true));
}

float AttackResult::success_rate() const {
  if (success.empty()) return 0.0f;
  return static_cast<float>(success_count()) /
         static_cast<float>(success.size());
}

namespace {

float mean_over_success(const std::vector<float>& values,
                        const std::vector<bool>& success) {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (success[i]) {
      acc += values[i];
      ++n;
    }
  }
  return n ? static_cast<float>(acc / static_cast<double>(n)) : 0.0f;
}

// Hinge statistics from logits already stored in `out`.
void fill_hinge_stats(HingeEval& out, const std::vector<int>& labels,
                      float kappa, HingeMode mode) {
  const std::size_t n = out.logits.dim(0), k = out.logits.dim(1);
  out.margin.resize(n);
  out.f.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* z = out.logits.data() + i * k;
    const auto t = static_cast<std::size_t>(labels[i]);
    if (t >= k) {
      throw std::invalid_argument("eval_attack_hinge: label out of range");
    }
    float best_other = -1e30f;
    for (std::size_t j = 0; j < k; ++j) {
      if (j != t) best_other = std::max(best_other, z[j]);
    }
    // Goal-oriented margin: both eq. (2) and eq. (3) reduce to
    // f = max(-margin, -kappa) under this orientation.
    out.margin[i] = mode == HingeMode::Untargeted ? best_other - z[t]
                                                  : z[t] - best_other;
    out.f[i] = std::max(-out.margin[i], -kappa);
  }
}

// Logit-space seed of sum_i weight[i] * f_i.
Tensor hinge_seed(const HingeEval& eval, const std::vector<int>& labels,
                  float kappa, const std::vector<float>& weight,
                  HingeMode mode) {
  const std::size_t n = eval.logits.dim(0), k = eval.logits.dim(1);
  if (weight.size() != n || labels.size() != n) {
    throw std::invalid_argument("attack_hinge_input_gradient: size mismatch");
  }
  Tensor seed({n, k});
  for (std::size_t i = 0; i < n; ++i) {
    // Hinge active iff margin < kappa.
    if (eval.margin[i] >= kappa || weight[i] == 0.0f) continue;
    const float* z = eval.logits.data() + i * k;
    const auto t = static_cast<std::size_t>(labels[i]);
    std::size_t jstar = t == 0 ? 1 : 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (j != t && z[j] > z[jstar]) jstar = j;
    }
    // d f / d z: untargeted pushes z_t down and z_{j*} up; targeted the
    // reverse.
    const float sign = mode == HingeMode::Untargeted ? 1.0f : -1.0f;
    seed[i * k + t] = sign * weight[i];
    seed[i * k + jstar] = -sign * weight[i];
  }
  return seed;
}

}  // namespace

float AttackResult::mean_l1_over_success() const {
  return mean_over_success(l1, success);
}

float AttackResult::mean_l2_over_success() const {
  return mean_over_success(l2, success);
}

HingeEval eval_attack_hinge(AttackTarget& target, const Tensor& batch,
                            const std::vector<int>& labels, float kappa,
                            HingeMode mode, nn::Mode forward_mode) {
  if (batch.dim(0) != labels.size()) {
    throw std::invalid_argument("eval_attack_hinge: batch/label mismatch");
  }
  HingeEval out;
  out.logits = target.logits(batch, forward_mode);
  fill_hinge_stats(out, labels, kappa, mode);
  return out;
}

HingeEval eval_untargeted_hinge(AttackTarget& target, const Tensor& batch,
                                const std::vector<int>& labels, float kappa,
                                nn::Mode forward_mode) {
  return eval_attack_hinge(target, batch, labels, kappa,
                           HingeMode::Untargeted, forward_mode);
}

Tensor attack_hinge_input_gradient(AttackTarget& target, const Tensor& batch,
                                   const HingeEval& eval,
                                   const std::vector<int>& labels,
                                   float kappa,
                                   const std::vector<float>& weight,
                                   HingeMode mode) {
  return target.input_grad(batch,
                           hinge_seed(eval, labels, kappa, weight, mode));
}

Tensor hinge_input_gradient(AttackTarget& target, const Tensor& batch,
                            const HingeEval& eval,
                            const std::vector<int>& labels, float kappa,
                            const std::vector<float>& weight) {
  return attack_hinge_input_gradient(target, batch, eval, labels, kappa,
                                     weight, HingeMode::Untargeted);
}

bool attack_succeeded(float margin, float kappa) { return margin >= kappa; }

void fill_distortions(AttackResult& result, const Tensor& natural) {
  const std::size_t n = natural.dim(0);
  const std::size_t row = natural.numel() / n;
  result.l1.assign(n, 0.0f);
  result.l2.assign(n, 0.0f);
  result.linf.assign(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    const float* a = result.adversarial.data() + i * row;
    const float* x = natural.data() + i * row;
    double acc1 = 0.0, acc2 = 0.0;
    float mx = 0.0f;
    for (std::size_t j = 0; j < row; ++j) {
      const float d = a[j] - x[j];
      acc1 += std::fabs(d);
      acc2 += static_cast<double>(d) * d;
      mx = std::max(mx, std::fabs(d));
    }
    result.l1[i] = static_cast<float>(acc1);
    result.l2[i] = static_cast<float>(std::sqrt(acc2));
    result.linf[i] = mx;
  }
}

AttackResult finish_result(AttackTarget& target, Tensor x,
                           std::vector<bool> success, const Tensor& natural) {
  const std::size_t n = natural.dim(0);
  const std::size_t row = natural.numel() / n;
  if (target.has_aux()) {
    const std::vector<float> aux = target.aux_loss(x);
    for (std::size_t i = 0; i < n; ++i) {
      if (aux[i] > 0.0f) success[i] = false;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!success[i]) {
      std::copy_n(natural.data() + i * row, row, x.data() + i * row);
    }
  }
  AttackResult result;
  result.adversarial = std::move(x);
  result.success = std::move(success);
  fill_distortions(result, natural);
  return result;
}

}  // namespace adv::attacks
