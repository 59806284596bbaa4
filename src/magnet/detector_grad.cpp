#include "magnet/detector_grad.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/softmax.hpp"

namespace adv::magnet {
namespace {

constexpr float kThresholdFloor = 1e-12f;

// d aux_i / d score_i for rows over threshold; 0 (inactive hinge) below.
float hinge_scale(float threshold) {
  return 1.0f / std::max(threshold, kThresholdFloor);
}

float hinged(float score, float threshold) {
  const float over = score - threshold;
  return over > 0.0f ? over * hinge_scale(threshold) : 0.0f;
}

}  // namespace

ReconErrorTerm::ReconErrorTerm(std::shared_ptr<nn::Sequential> autoencoder,
                               int p, float threshold, std::string name)
    : ae_(std::move(autoencoder)),
      p_(p),
      threshold_(threshold),
      name_(std::move(name)) {
  if (!ae_) throw std::invalid_argument("ReconErrorTerm: null AE");
  if (p_ != 1 && p_ != 2) {
    throw std::invalid_argument("ReconErrorTerm: p must be 1 or 2");
  }
}

std::vector<float> ReconErrorTerm::loss(const Tensor& batch) {
  // Identical score formula to ReconstructionDetector::scores (mean
  // per-pixel |x - AE(x)|^p), then hinged against the threshold.
  const Tensor recon = ae_->forward(batch, nn::Mode::Infer);
  const std::size_t n = batch.dim(0);
  const std::size_t row = batch.numel() / n;
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* xi = batch.data() + i * row;
    const float* ri = recon.data() + i * row;
    double acc = 0.0;
    if (p_ == 1) {
      for (std::size_t j = 0; j < row; ++j) acc += std::fabs(xi[j] - ri[j]);
    } else {
      for (std::size_t j = 0; j < row; ++j) {
        const double d = static_cast<double>(xi[j]) - ri[j];
        acc += d * d;
      }
    }
    out[i] = hinged(static_cast<float>(acc / static_cast<double>(row)),
                    threshold_);
  }
  return out;
}

Tensor ReconErrorTerm::input_grad(const Tensor& batch,
                                  const std::vector<float>& weight) {
  if (weight.size() != batch.dim(0)) {
    throw std::invalid_argument("ReconErrorTerm: weight/batch mismatch");
  }
  const std::size_t n = batch.dim(0);
  const std::size_t row = batch.numel() / n;
  const Tensor recon = ae_->forward(batch, nn::Mode::Eval, &ae_tape_);

  // Per-row seed d(sum_i w_i aux_i)/d(diff): with diff = x - AE(x) and
  // score = mean |diff|^p, each element contributes (sign(d)/row) for
  // p = 1 or (2 d / row) for p = 2, scaled by the hinge slope. Rows at or
  // under threshold (or with weight 0) stay zero. The seed is shaped like
  // the AE OUTPUT (elementwise equal to the batch but possibly reshaped,
  // e.g. flattened) — ae_->backward checks shapes against it.
  Tensor seed(recon.shape());
  const float slope = hinge_scale(threshold_);
  for (std::size_t i = 0; i < n; ++i) {
    if (weight[i] == 0.0f) continue;
    const float* xi = batch.data() + i * row;
    const float* ri = recon.data() + i * row;
    double acc = 0.0;
    if (p_ == 1) {
      for (std::size_t j = 0; j < row; ++j) acc += std::fabs(xi[j] - ri[j]);
    } else {
      for (std::size_t j = 0; j < row; ++j) {
        const double d = static_cast<double>(xi[j]) - ri[j];
        acc += d * d;
      }
    }
    const float score = static_cast<float>(acc / static_cast<double>(row));
    if (score <= threshold_) continue;  // hinge inactive
    const float s = weight[i] * slope / static_cast<float>(row);
    float* si = seed.data() + i * row;
    if (p_ == 1) {
      for (std::size_t j = 0; j < row; ++j) {
        const float d = xi[j] - ri[j];
        si[j] = d > 0.0f ? s : d < 0.0f ? -s : 0.0f;
      }
    } else {
      for (std::size_t j = 0; j < row; ++j) {
        si[j] = 2.0f * s * (xi[j] - ri[j]);
      }
    }
  }

  // d/dx [x - AE(x)] applied to the seed: identity minus the AE pullback.
  // Returned in the batch's own shape (flat copy; numel matches).
  const Tensor pullback = ae_->backward(seed, ae_tape_);
  Tensor grad(batch.shape());
  for (std::size_t j = 0, m = grad.numel(); j < m; ++j) {
    grad[j] = seed[j] - pullback[j];
  }
  return grad;
}

JsdEvasionTerm::JsdEvasionTerm(std::shared_ptr<nn::Sequential> autoencoder,
                               std::shared_ptr<nn::Sequential> classifier,
                               float temperature, float threshold,
                               std::string name)
    : ae_(std::move(autoencoder)),
      classifier_(std::move(classifier)),
      temperature_(temperature),
      threshold_(threshold),
      name_(std::move(name)) {
  if (!ae_ || !classifier_) {
    throw std::invalid_argument("JsdEvasionTerm: null model");
  }
  if (temperature_ <= 0.0f) {
    throw std::invalid_argument("JsdEvasionTerm: temperature must be > 0");
  }
}

std::vector<float> JsdEvasionTerm::loss(const Tensor& batch) {
  const Tensor recon = ae_->forward(batch, nn::Mode::Infer);
  const Tensor logits_x = classifier_->forward(batch, nn::Mode::Infer);
  const Tensor logits_r = classifier_->forward(recon, nn::Mode::Infer);
  const Tensor probs_x = nn::softmax_rows(logits_x, temperature_);
  const Tensor probs_r = nn::softmax_rows(logits_r, temperature_);
  const std::size_t n = batch.dim(0);
  const std::size_t k = probs_x.dim(1);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float jsd = jensen_shannon_divergence(
        std::span<const float>(probs_x.data() + i * k, k),
        std::span<const float>(probs_r.data() + i * k, k));
    out[i] = hinged(jsd, threshold_);
  }
  return out;
}

Tensor JsdEvasionTerm::input_grad(const Tensor& batch,
                                  const std::vector<float>& weight) {
  if (weight.size() != batch.dim(0)) {
    throw std::invalid_argument("JsdEvasionTerm: weight/batch mismatch");
  }
  const std::size_t n = batch.dim(0);

  // Branch values first, each pass on its own tape.
  const Tensor recon = ae_->forward(batch, nn::Mode::Eval, &ae_tape_);
  const Tensor logits_x =
      classifier_->forward(batch, nn::Mode::Eval, &direct_tape_);
  const Tensor logits_r =
      classifier_->forward(recon, nn::Mode::Eval, &recon_tape_);
  const Tensor probs_x = nn::softmax_rows(logits_x, temperature_);
  const Tensor probs_r = nn::softmax_rows(logits_r, temperature_);
  const std::size_t k = probs_x.dim(1);

  // Logit-space seeds for both branches. With u_j = 0.5 ln(p_j / m_j)
  // (the JSD partial wrt p_j, 0-log-0 convention) the tempered-softmax
  // chain rule gives dJSD/dz_j = (1/T) p_j (u_j - sum_t u_t p_t); rows
  // with an inactive hinge (or zero weight) stay zero.
  Tensor seed_x({n, k});
  Tensor seed_r({n, k});
  const float slope = hinge_scale(threshold_);
  bool any_active = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (weight[i] == 0.0f) continue;
    const float* px = probs_x.data() + i * k;
    const float* pr = probs_r.data() + i * k;
    const float jsd = jensen_shannon_divergence(
        std::span<const float>(px, k), std::span<const float>(pr, k));
    if (jsd <= threshold_) continue;  // hinge inactive
    any_active = true;
    const float s = weight[i] * slope / temperature_;
    double dot_x = 0.0, dot_r = 0.0;
    std::vector<double> ux(k, 0.0), ur(k, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      const double m = 0.5 * (static_cast<double>(px[j]) + pr[j]);
      if (px[j] > 0.0f) {
        ux[j] = 0.5 * std::log(static_cast<double>(px[j]) / m);
        dot_x += ux[j] * px[j];
      }
      if (pr[j] > 0.0f) {
        ur[j] = 0.5 * std::log(static_cast<double>(pr[j]) / m);
        dot_r += ur[j] * pr[j];
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      seed_x[i * k + j] =
          s * px[j] * static_cast<float>(ux[j] - dot_x);
      seed_r[i * k + j] =
          s * pr[j] * static_cast<float>(ur[j] - dot_r);
    }
  }

  Tensor grad(batch.shape());
  if (!any_active) return grad;

  // Recon branch (x -> AE -> classifier), then the direct branch.
  {
    const Tensor g = ae_->backward(
        classifier_->backward(seed_r, recon_tape_), ae_tape_);
    for (std::size_t j = 0, m = grad.numel(); j < m; ++j) grad[j] += g[j];
  }
  {
    const Tensor g = classifier_->backward(seed_x, direct_tape_);
    for (std::size_t j = 0, m = grad.numel(); j < m; ++j) grad[j] += g[j];
  }
  return grad;
}

std::vector<std::shared_ptr<attacks::AuxObjective>> detector_aux_terms(
    const MagNetPipeline& pipeline) {
  std::vector<std::shared_ptr<attacks::AuxObjective>> terms;
  terms.reserve(pipeline.detector_count());
  for (std::size_t i = 0; i < pipeline.detector_count(); ++i) {
    const Detector& d = pipeline.detector(i);
    const float threshold = d.threshold();  // throws if not calibrated
    if (const auto* rd = dynamic_cast<const ReconstructionDetector*>(&d)) {
      terms.push_back(std::make_shared<ReconErrorTerm>(
          rd->autoencoder(), rd->p(), threshold, "aux_" + d.name()));
    } else if (const auto* jd = dynamic_cast<const JsdDetector*>(&d)) {
      terms.push_back(std::make_shared<JsdEvasionTerm>(
          jd->autoencoder(), jd->classifier(), jd->temperature(), threshold,
          "aux_" + d.name()));
    } else {
      throw std::invalid_argument(
          "detector_aux_terms: no gradient implementation for detector '" +
          d.name() + "'");
    }
  }
  return terms;
}

}  // namespace adv::magnet
