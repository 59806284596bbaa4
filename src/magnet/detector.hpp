// MagNet adversary detectors.
//
// A Detector maps a batch of images to anomaly scores (higher = more
// likely adversarial) and rejects inputs whose score exceeds a threshold
// calibrated on clean validation data at a target false-positive rate —
// exactly MagNet's procedure.
//
// Two families, as in the paper:
//   * ReconstructionDetector — per-pixel Lp reconstruction error of an
//     auto-encoder (p = 1 or 2; MNIST's default MagNet uses one of each).
//   * JsdDetector — Jensen-Shannon divergence between the classifier's
//     temperature-softened output on x and on AE(x) (CIFAR default and the
//     "D+JSD" robust MNIST variant; temperatures 10 and 40 in the paper).
//
// Detectors score through a PassMemo: the model passes of one batch, each
// run at most once, so a bank whose detectors share an auto-encoder and
// the classifier (the CIFAR default puts four detectors and the reformer
// on one AE) runs each shared pass once instead of once per detector.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace adv::magnet {

/// The model passes over one batch, each computed at most once:
/// reconstruction(ae) is nn::predict(ae, batch) and logits(classifier, ae)
/// is nn::predict(classifier, ae ? AE(batch) : batch). A pass is the very
/// predict call an independent caller would make (same input, default
/// chunking), so a memoized value is bitwise that caller's value. Passes
/// are keyed by model identity (address): two distinct models with equal
/// weights are never merged. Returned references stay valid for the
/// memo's lifetime, and the batch must outlive the memo. One memo serves
/// one call on one thread; concurrent calls each build their own.
class PassMemo {
 public:
  explicit PassMemo(const Tensor& batch) : batch_(batch) {}
  explicit PassMemo(Tensor&&) = delete;  // would dangle
  PassMemo(const PassMemo&) = delete;
  PassMemo& operator=(const PassMemo&) = delete;

  const Tensor& batch() const { return batch_; }
  const Tensor& reconstruction(const nn::Sequential& ae);
  /// Logits of `classifier` on the batch, or on reconstruction(*ae) when
  /// `ae` is non-null.
  const Tensor& logits(const nn::Sequential& classifier,
                       const nn::Sequential* ae = nullptr);

 private:
  const Tensor& batch_;
  std::map<const nn::Sequential*, Tensor> reconstructions_;
  std::map<std::pair<const nn::Sequential*, const nn::Sequential*>, Tensor>
      logits_;
};

class Detector {
 public:
  virtual ~Detector() = default;

  /// Anomaly score per row of memo.batch(); higher means more anomalous.
  /// Implementations take every model pass from the memo, so detectors
  /// sharing a model share its pass. Const: scoring never changes the
  /// detector's calibration (the models it consults are behind
  /// shared_ptrs and run forward-only).
  virtual std::vector<float> scores_from(PassMemo& memo) const = 0;

  /// One-shot scoring: scores_from over a memo of its own.
  std::vector<float> scores(const Tensor& batch) const;

  virtual std::string name() const = 0;

  /// Sets the rejection threshold to the (1 - fpr) quantile of scores on
  /// clean validation images. Throws std::invalid_argument on empty data
  /// or fpr outside (0, 1).
  void calibrate(const Tensor& clean_validation, float fpr);
  /// The same threshold from already computed clean validation scores, so
  /// one scoring pass can serve several fprs or a whole detector bank.
  void calibrate_scores(std::span<const float> clean_scores, float fpr);

  bool calibrated() const { return calibrated_; }
  float threshold() const;
  void set_threshold(float t) {
    threshold_ = t;
    calibrated_ = true;
  }

  /// reject[i] == true iff scores(batch)[i] > threshold. Requires a prior
  /// calibrate()/set_threshold().
  std::vector<bool> reject(const Tensor& batch) const;

 private:
  float threshold_ = 0.0f;
  bool calibrated_ = false;
};

class ReconstructionDetector final : public Detector {
 public:
  /// `p` must be 1 or 2. Score is the mean |x - AE(x)|^p per pixel
  /// (average, so thresholds are comparable across image sizes).
  ReconstructionDetector(std::shared_ptr<nn::Sequential> autoencoder, int p);

  std::vector<float> scores_from(PassMemo& memo) const override;
  std::string name() const override {
    return "recon_l" + std::to_string(p_);
  }

  /// The models/parameters a detector-aware attacker differentiates
  /// through (attacks build gradient terms from these; see
  /// magnet/detector_grad.hpp).
  const std::shared_ptr<nn::Sequential>& autoencoder() const { return ae_; }
  int p() const { return p_; }

 private:
  std::shared_ptr<nn::Sequential> ae_;
  int p_;
};

class JsdDetector final : public Detector {
 public:
  /// Score is JSD(softmax(F(x)/T) || softmax(F(AE(x))/T)).
  JsdDetector(std::shared_ptr<nn::Sequential> autoencoder,
              std::shared_ptr<nn::Sequential> classifier, float temperature);

  std::vector<float> scores_from(PassMemo& memo) const override;
  std::string name() const override {
    return "jsd_T" + std::to_string(static_cast<int>(temperature_));
  }

  const std::shared_ptr<nn::Sequential>& autoencoder() const { return ae_; }
  const std::shared_ptr<nn::Sequential>& classifier() const {
    return classifier_;
  }
  float temperature() const { return temperature_; }

 private:
  std::shared_ptr<nn::Sequential> ae_;
  std::shared_ptr<nn::Sequential> classifier_;
  float temperature_;
};

/// Jensen-Shannon divergence between two discrete distributions (rows of
/// equal length). Exposed for tests; returns a value in [0, ln 2].
float jensen_shannon_divergence(std::span<const float> p,
                                std::span<const float> q);

}  // namespace adv::magnet
