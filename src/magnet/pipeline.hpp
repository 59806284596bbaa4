// MagNetPipeline: the full serial two-stage defense.
//
//   input -> [detector bank: reject if ANY detector fires]
//         -> [reformer: x <- AE(x)]
//         -> DNN classifier -> label
//
// DefenseScheme selects which stages are active, reproducing the paper's
// supplementary ablation (no defense / detector only / reformer only /
// detector & reformer).
#pragma once

#include <memory>
#include <vector>

#include "magnet/detector.hpp"
#include "nn/sequential.hpp"

namespace adv::magnet {

enum class DefenseScheme { None, DetectorOnly, ReformerOnly, Full };

const char* to_string(DefenseScheme s);

/// One detector's raw output on a batch: its name, calibrated threshold,
/// and per-row scores. reject_row(i) reproduces the detector's decision
/// (score > threshold) without re-running the models.
struct DetectorReading {
  std::string name;
  float threshold = 0.0f;
  std::vector<float> scores;

  bool reject_row(std::size_t i) const { return scores[i] > threshold; }
};

struct DefenseOutcome {
  /// True where some detector rejected the input (always false under
  /// None/ReformerOnly).
  std::vector<bool> rejected;
  /// Predicted label after the (possibly active) reformer; computed for
  /// every row including rejected ones.
  std::vector<int> predicted;
  /// Raw scores + thresholds per detector, in bank order — says WHICH
  /// detector fired, not just that one did. Empty when the scheme runs no
  /// detectors. `rejected` is exactly the OR of reject_row over readings.
  std::vector<DetectorReading> readings;

  /// Rows [begin, end) of this outcome as a standalone outcome: rejected/
  /// predicted sub-ranges plus every reading with its scores sliced (name
  /// and threshold copied). The serve micro-batcher uses this to hand
  /// each coalesced request its exact share of one dense classify()
  /// result. Throws std::out_of_range on a bad range.
  DefenseOutcome slice_rows(std::size_t begin, std::size_t end) const;
};

/// Reformer: projects inputs onto the learned data manifold via the
/// auto-encoder.
class Reformer {
 public:
  explicit Reformer(std::shared_ptr<nn::Sequential> autoencoder);
  Tensor reform(const Tensor& batch) const;

  const std::shared_ptr<nn::Sequential>& autoencoder() const { return ae_; }

 private:
  std::shared_ptr<nn::Sequential> ae_;
};

class MagNetPipeline {
 public:
  explicit MagNetPipeline(std::shared_ptr<nn::Sequential> classifier);

  void add_detector(std::shared_ptr<Detector> detector);
  void set_reformer(std::shared_ptr<Reformer> reformer);

  std::size_t detector_count() const { return detectors_.size(); }
  Detector& detector(std::size_t i) { return *detectors_.at(i); }
  const Detector& detector(std::size_t i) const { return *detectors_.at(i); }
  nn::Sequential& classifier() { return *classifier_; }
  /// Null when no reformer is set.
  const Reformer* reformer() const { return reformer_.get(); }

  /// Calibrates every detector's threshold at `fpr` on clean validation
  /// images (MagNet's procedure). The whole bank scores through one
  /// PassMemo, so each shared pass over the validation set runs once;
  /// thresholds are bitwise those of per-detector Detector::calibrate.
  void calibrate(const Tensor& clean_validation, float fpr);

  /// Runs the defense. Detectors must be calibrated when the scheme uses
  /// them; a Full/ReformerOnly scheme without a reformer degrades to the
  /// respective detector-only/no-defense behaviour.
  ///
  /// Each call builds one PassMemo over `batch` that lives for the call
  /// and is shared by the detectors, the reformer (its output is
  /// memo.reconstruction(reformer AE)) and the classifier (`predicted` is
  /// the row argmax of memo.logits(classifier, reformer AE or null)). So
  /// every distinct model pass runs once per call: on the CIFAR default
  /// (recon L1/L2 and JSD T10/T40 plus the reformer on one AE) Full and
  /// DetectorOnly run 3 forwards (AE(x), F(x), F(AE(x))), ReformerOnly 2,
  /// None 1; the MNIST default (deep + shallow AE, reformer = deep) runs 3
  /// under Full. Every value is bitwise what independent nn::predict calls
  /// per detector, Reformer::reform and nn::predict_labels compute.
  ///
  /// The obs stage timers magnet/stage/{detectors,reformer,classifier}
  /// are recorded once per call when the scheme runs that stage (the
  /// classifier stage always). A stage times the passes it is the first
  /// to need: on the CIFAR default under Full the detectors stage runs all
  /// three passes and the reformer and classifier stages read close to 0.
  ///
  /// Every model pass is a forward-only pass over read-only layers that
  /// allocates its own buffers and shares no mutable state, so concurrent
  /// calls on one pipeline are safe and each returns exactly what a lone
  /// call would.
  DefenseOutcome classify(const Tensor& batch,
                          DefenseScheme scheme = DefenseScheme::Full) const;

  /// Accuracy on clean data: fraction neither rejected nor misclassified.
  float clean_accuracy(const Tensor& images, const std::vector<int>& labels,
                       DefenseScheme scheme = DefenseScheme::Full) const;

 private:
  std::shared_ptr<nn::Sequential> classifier_;
  std::vector<std::shared_ptr<Detector>> detectors_;
  std::shared_ptr<Reformer> reformer_;
};

}  // namespace adv::magnet
