#include "attacks/deepfool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "attacks/engine.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {

AttackResult deepfool_attack(AttackTarget& target, const Tensor& images,
                             const std::vector<int>& labels,
                             const DeepFoolConfig& cfg) {
  if (images.dim(0) != labels.size()) {
    throw std::invalid_argument("deepfool_attack: image/label count mismatch");
  }
  const std::size_t n = images.dim(0);
  const std::size_t row = images.numel() / n;

  Tensor x = images;
  ActiveSet rows(n);
  EngineStats stats;

  for (std::size_t iter = 0;
       iter < cfg.max_iterations && !rows.none_active(); ++iter) {
    const std::vector<std::size_t>& idx = rows.indices();
    const std::size_t na = idx.size();
    Tensor x_g;
    const Tensor& xcur = rows.pick(x, x_g);

    // One recording forward per iteration; the K per-class backwards
    // below all read the same tape (backward treats it as read-only).
    const Tensor logits = target.logits(xcur, nn::Mode::Eval);
    const std::size_t k = logits.dim(1);
    rows.record_passes(stats, 1);

    // Rows fooled by the current iterate get no step and retire after the
    // update loop.
    std::vector<std::uint8_t> fooled(na, 0);
    bool any_active = false;
    for (std::size_t a = 0; a < na; ++a) {
      if (static_cast<int>(argmax_row(logits, a)) != labels[idx[a]]) {
        fooled[a] = 1;
      } else {
        any_active = true;
      }
    }

    if (any_active) {
      // Per-class input gradients for the sub-batch: K backward passes
      // seeded one-hot, all from the single forward above.
      std::vector<Tensor> grads(k);
      for (std::size_t j = 0; j < k; ++j) {
        Tensor seed({na, k});
        for (std::size_t a = 0; a < na; ++a) {
          if (!fooled[a]) seed[a * k + j] = 1.0f;
        }
        grads[j] = target.input_grad(xcur, seed);
        rows.record_passes(stats, 1);
      }

      // Standard DeepFool step toward the nearest decision boundary.
      for (std::size_t a = 0; a < na; ++a) {
        if (fooled[a]) continue;
        const std::size_t g = idx[a];
        const auto t0 = static_cast<std::size_t>(labels[g]);
        const float* z = logits.data() + a * k;
        float best_ratio = std::numeric_limits<float>::infinity();
        std::size_t best_j = k;  // sentinel
        float best_fj = 0.0f;
        double best_wnorm2 = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          if (j == t0) continue;
          const float fj = z[j] - z[t0];
          double wnorm2 = 0.0;
          const float* gj = grads[j].data() + a * row;
          const float* gt = grads[t0].data() + a * row;
          for (std::size_t d = 0; d < row; ++d) {
            const double w = static_cast<double>(gj[d]) - gt[d];
            wnorm2 += w * w;
          }
          if (wnorm2 < 1e-20) continue;
          const float ratio =
              std::fabs(fj) / static_cast<float>(std::sqrt(wnorm2));
          if (ratio < best_ratio) {
            best_ratio = ratio;
            best_j = j;
            best_fj = fj;
            best_wnorm2 = wnorm2;
          }
        }
        if (best_j == k) continue;  // degenerate gradients; skip this sample
        const float scale = (1.0f + cfg.overshoot) * std::fabs(best_fj) /
                            static_cast<float>(best_wnorm2);
        float* px = x.data() + g * row;
        const float* gj = grads[best_j].data() + a * row;
        const float* gt = grads[t0].data() + a * row;
        for (std::size_t d = 0; d < row; ++d) {
          px[d] = std::clamp(px[d] + scale * (gj[d] - gt[d]), 0.0f, 1.0f);
        }
      }
    }

    // Collect first: retire() mutates the indices() vector `idx` aliases.
    std::vector<std::size_t> to_retire;
    for (std::size_t a = 0; a < na; ++a) {
      if (fooled[a]) to_retire.push_back(idx[a]);
    }
    for (const std::size_t g : to_retire) {
      rows.retire(g);
      ++stats.rows_retired;
    }
    if (!any_active) break;
  }
  stats.flush("deepfool");

  const Tensor logits = target.logits(x, nn::Mode::Infer);
  std::vector<bool> success(n);
  for (std::size_t i = 0; i < n; ++i) {
    success[i] = static_cast<int>(argmax_row(logits, i)) != labels[i];
  }
  return finish_result(target, std::move(x), std::move(success), images);
}

AttackResult deepfool_attack(nn::Sequential& model, const Tensor& images,
                             const std::vector<int>& labels,
                             const DeepFoolConfig& cfg) {
  ObliviousTarget target(model);
  return deepfool_attack(target, images, labels, cfg);
}

}  // namespace adv::attacks
