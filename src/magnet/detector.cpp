#include "magnet/detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/softmax.hpp"
#include "nn/trainer.hpp"

namespace adv::magnet {

const Tensor& PassMemo::reconstruction(const nn::Sequential& ae) {
  auto it = reconstructions_.find(&ae);
  if (it == reconstructions_.end()) {
    it = reconstructions_.emplace(&ae, nn::predict(ae, batch_)).first;
  }
  return it->second;
}

const Tensor& PassMemo::logits(const nn::Sequential& classifier,
                               const nn::Sequential* ae) {
  const auto key = std::make_pair(&classifier, ae);
  auto it = logits_.find(key);
  if (it == logits_.end()) {
    const Tensor& input = ae ? reconstruction(*ae) : batch_;
    it = logits_.emplace(key, nn::predict(classifier, input)).first;
  }
  return it->second;
}

std::vector<float> Detector::scores(const Tensor& batch) const {
  PassMemo memo(batch);
  return scores_from(memo);
}

void Detector::calibrate(const Tensor& clean_validation, float fpr) {
  calibrate_scores(scores(clean_validation), fpr);
}

void Detector::calibrate_scores(std::span<const float> clean_scores,
                                float fpr) {
  if (fpr <= 0.0f || fpr >= 1.0f) {
    throw std::invalid_argument("Detector::calibrate: fpr must be in (0,1)");
  }
  std::vector<float> s(clean_scores.begin(), clean_scores.end());
  if (s.empty()) {
    throw std::invalid_argument("Detector::calibrate: empty validation set");
  }
  std::sort(s.begin(), s.end());
  // (1 - fpr) quantile; at least the max when fpr is below resolution.
  const std::size_t n = s.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil((1.0 - static_cast<double>(fpr)) * static_cast<double>(n)));
  if (idx >= n) idx = n - 1;
  threshold_ = s[idx];
  calibrated_ = true;
}

float Detector::threshold() const {
  if (!calibrated_) {
    throw std::logic_error("Detector::threshold before calibrate");
  }
  return threshold_;
}

std::vector<bool> Detector::reject(const Tensor& batch) const {
  const float t = threshold();  // throws if not calibrated
  const std::vector<float> s = scores(batch);
  std::vector<bool> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = s[i] > t;
  return out;
}

ReconstructionDetector::ReconstructionDetector(
    std::shared_ptr<nn::Sequential> autoencoder, int p)
    : ae_(std::move(autoencoder)), p_(p) {
  if (!ae_) throw std::invalid_argument("ReconstructionDetector: null AE");
  if (p != 1 && p != 2) {
    throw std::invalid_argument("ReconstructionDetector: p must be 1 or 2");
  }
}

std::vector<float> ReconstructionDetector::scores_from(PassMemo& memo) const {
  const Tensor& batch = memo.batch();
  const Tensor& recon = memo.reconstruction(*ae_);
  const std::size_t n = batch.dim(0);
  const std::size_t row = batch.numel() / n;
  std::vector<float> out(n);
  const float* x = batch.data();
  const float* r = recon.data();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    const float* xi = x + i * row;
    const float* ri = r + i * row;
    if (p_ == 1) {
      for (std::size_t j = 0; j < row; ++j) acc += std::fabs(xi[j] - ri[j]);
    } else {
      for (std::size_t j = 0; j < row; ++j) {
        const double d = static_cast<double>(xi[j]) - ri[j];
        acc += d * d;
      }
    }
    out[i] = static_cast<float>(acc / static_cast<double>(row));
  }
  return out;
}

JsdDetector::JsdDetector(std::shared_ptr<nn::Sequential> autoencoder,
                         std::shared_ptr<nn::Sequential> classifier,
                         float temperature)
    : ae_(std::move(autoencoder)),
      classifier_(std::move(classifier)),
      temperature_(temperature) {
  if (!ae_ || !classifier_) {
    throw std::invalid_argument("JsdDetector: null model");
  }
  if (temperature <= 0.0f) {
    throw std::invalid_argument("JsdDetector: temperature must be > 0");
  }
}

float jensen_shannon_divergence(std::span<const float> p,
                                std::span<const float> q) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("jsd: length mismatch");
  }
  // KL contributions with the 0 log 0 = 0 convention; m_i > 0 whenever
  // p_i > 0 or q_i > 0, so the logs are well-defined.
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i], qi = q[i];
    const double mi = 0.5 * (pi + qi);
    if (pi > 0.0) acc += 0.5 * pi * std::log(pi / mi);
    if (qi > 0.0) acc += 0.5 * qi * std::log(qi / mi);
  }
  return static_cast<float>(std::max(acc, 0.0));
}

std::vector<float> JsdDetector::scores_from(PassMemo& memo) const {
  const Tensor probs_x =
      nn::softmax_rows(memo.logits(*classifier_), temperature_);
  const Tensor probs_r =
      nn::softmax_rows(memo.logits(*classifier_, ae_.get()), temperature_);
  const std::size_t n = memo.batch().dim(0);
  const std::size_t k = probs_x.dim(1);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = jensen_shannon_divergence(
        std::span<const float>(probs_x.data() + i * k, k),
        std::span<const float>(probs_r.data() + i * k, k));
  }
  return out;
}

}  // namespace adv::magnet
