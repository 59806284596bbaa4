// Differentiable detector-evasion terms: the MagNet detector bank,
// re-expressed as attacks::AuxObjective implementations so a
// DetectorAwareTarget can fold "don't get caught" into an attack's
// objective (Carlini & Wagner's detector-aware break of MagNet,
// arXiv:1711.08478).
//
// Each term mirrors one calibrated Detector. Its per-row loss is the
// hinged, threshold-normalized overshoot
//
//   aux_i = max(0, score_i - threshold) / max(threshold, eps)
//
// so aux_i <= 0 exactly when the detector would pass row i, and terms
// with very different score scales (reconstruction error vs JSD)
// contribute comparably. input_grad differentiates the same expression
// through the detector's models analytically, on tapes the term owns:
//   * reconstruction error  — d/dx mean|x - AE(x)|^p needs one AE
//     forward/backward (grad = seed - AE^T seed);
//   * JSD                   — dJSD/dp_j = 0.5 ln(p_j / m_j), chained
//     through the temperature softmax and both classifier branches
//     (on x directly and on AE(x)).
#pragma once

#include <memory>
#include <vector>

#include "attacks/target.hpp"
#include "magnet/detector.hpp"
#include "magnet/pipeline.hpp"

namespace adv::magnet {

/// Evasion term for a ReconstructionDetector: hinged overshoot of the
/// mean per-pixel Lp reconstruction error over the calibrated threshold.
class ReconErrorTerm final : public attacks::AuxObjective {
 public:
  /// `p` is 1 or 2; `threshold` is the detector's calibrated threshold.
  ReconErrorTerm(std::shared_ptr<nn::Sequential> autoencoder, int p,
                 float threshold, std::string name);

  std::string name() const override { return name_; }
  std::vector<float> loss(const Tensor& batch) override;
  Tensor input_grad(const Tensor& batch,
                    const std::vector<float>& weight) override;

 private:
  std::shared_ptr<nn::Sequential> ae_;
  int p_;
  float threshold_;
  std::string name_;
  nn::Tape ae_tape_;
};

/// Evasion term for a JsdDetector: hinged overshoot of
/// JSD(softmax(F(x)/T) || softmax(F(AE(x))/T)) over the threshold.
class JsdEvasionTerm final : public attacks::AuxObjective {
 public:
  JsdEvasionTerm(std::shared_ptr<nn::Sequential> autoencoder,
                 std::shared_ptr<nn::Sequential> classifier,
                 float temperature, float threshold, std::string name);

  std::string name() const override { return name_; }
  std::vector<float> loss(const Tensor& batch) override;
  Tensor input_grad(const Tensor& batch,
                    const std::vector<float>& weight) override;

 private:
  std::shared_ptr<nn::Sequential> ae_;
  std::shared_ptr<nn::Sequential> classifier_;
  float temperature_;
  float threshold_;
  std::string name_;
  // AE, classifier on the raw batch, classifier on the reconstruction.
  nn::Tape ae_tape_, direct_tape_, recon_tape_;
};

/// Builds one evasion term per detector in the (calibrated) pipeline's
/// bank, in bank order, sharing the detectors' own model instances.
/// Throws std::logic_error on an uncalibrated detector and
/// std::invalid_argument on a detector type without a gradient
/// implementation.
std::vector<std::shared_ptr<attacks::AuxObjective>> detector_aux_terms(
    const MagNetPipeline& pipeline);

}  // namespace adv::magnet
