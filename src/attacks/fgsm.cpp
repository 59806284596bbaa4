#include "attacks/fgsm.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "attacks/engine.hpp"
#include "attacks/fused.hpp"
#include "nn/softmax.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {

AttackResult fgsm_attack(AttackTarget& target, const Tensor& images,
                         const std::vector<int>& labels,
                         const FgsmConfig& cfg) {
  if (images.dim(0) != labels.size()) {
    throw std::invalid_argument("fgsm_attack: image/label count mismatch");
  }
  if (cfg.iterations == 0) {
    throw std::invalid_argument("fgsm_attack: iterations must be > 0");
  }
  const std::size_t n = images.dim(0);
  const std::size_t row = images.numel() / n;
  const float step = cfg.epsilon / static_cast<float>(cfg.iterations);

  Tensor x = images;
  ActiveSet rows(n);
  EngineStats stats;
  std::vector<std::size_t> to_retire;
  std::vector<float> aux_w;
  for (std::size_t k = 0; k < cfg.iterations && !rows.none_active(); ++k) {
    const std::vector<std::size_t>& idx = rows.indices();
    const std::size_t na = idx.size();
    Tensor x_g;
    std::vector<int> lab_g;
    const Tensor& xcur = rows.pick(x, x_g);
    const std::vector<int>& lab = rows.pick(labels, lab_g);

    // Cross-entropy ascent seed: each row's own softmax - onehot, not
    // divided by the batch size, so a row's gradient is bitwise the same
    // in any sub-batch and alone, even where a saturated softmax's tail
    // is subnormal.
    Tensor seed = nn::log_softmax_rows(target.logits(xcur, nn::Mode::Eval));
    for (float& v : seed.values()) v = std::exp(v);
    const std::size_t classes = seed.dim(1);
    for (std::size_t a = 0; a < na; ++a) {
      const auto t = static_cast<std::size_t>(lab[a]);
      if (t >= classes) {
        throw std::invalid_argument("fgsm_attack: label out of range");
      }
      seed[a * classes + t] -= 1.0f;
    }
    Tensor grad = target.input_grad(xcur, seed);
    rows.record_passes(stats, 2);  // forward + backward

    if (target.has_aux()) {
      // Descend the detector penalty alongside the CE ascent, at the same
      // per-row weight as the un-normalized CE seed.
      aux_w.assign(na, 1.0f);
      const Tensor ag = target.aux_input_grad(xcur, aux_w);
      for (std::size_t i = 0, m = grad.numel(); i < m; ++i) grad[i] -= ag[i];
    }

    // Sign step + eps-ball/[0,1] projection per active row. A row left
    // bitwise unchanged is at a fixed point of this deterministic map and
    // retires.
    to_retire.clear();
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t g = idx[a];
      if (!fused_sign_step(x.data() + g * row, grad.data() + a * row,
                           images.data() + g * row, row, step,
                           cfg.epsilon)) {
        to_retire.push_back(g);
      }
    }
    for (const std::size_t g : to_retire) {
      rows.retire(g);
      ++stats.rows_retired;
    }
  }
  stats.flush(cfg.iterations > 1 ? "ifgsm" : "fgsm");

  const HingeEval eval =
      eval_untargeted_hinge(target, x, labels, 0.0f, nn::Mode::Infer);
  std::vector<bool> success(n);
  for (std::size_t i = 0; i < n; ++i) {
    success[i] = eval.margin[i] > 0.0f;  // misclassified
  }
  return finish_result(target, std::move(x), std::move(success), images);
}

AttackResult fgsm_attack(nn::Sequential& model, const Tensor& images,
                         const std::vector<int>& labels,
                         const FgsmConfig& cfg) {
  ObliviousTarget target(model);
  return fgsm_attack(target, images, labels, cfg);
}

}  // namespace adv::attacks
