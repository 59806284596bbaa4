// AttackTarget: the model-composition seam of the attack API.
//
// Every attack in this library optimizes against "a thing that produces
// logits and input gradients". Under the paper's oblivious threat model
// that thing is the bare classifier; Carlini & Wagner (arXiv:1711.08478)
// break MagNet by pointing the same optimizers at the DEFENDED pipeline
// instead — backward through the reformer into the classifier, with the
// detector criteria folded into the objective. AttackTarget abstracts the
// seam so one attack implementation serves all three threat models:
//
//   * ObliviousTarget      — wraps the bare classifier. Bitwise-identical
//                            to the legacy nn::Sequential& attack entry
//                            points, which route through it.
//   * GrayBoxTarget        — logits(x) = classifier(AE(x)); input_grad
//                            backpropagates through the classifier and
//                            then the auto-encoder (Sequential input
//                            gradients already support this).
//   * DetectorAwareTarget  — GrayBoxTarget composition plus per-row
//                            auxiliary detector-evasion terms (hinged
//                            reconstruction-error / JSD penalties built
//                            from the defender's calibrated detector
//                            bank; see magnet/detector_grad.hpp).
//
// Call contract (mirrors the Sequential one the attacks already obey):
//   1. logits(batch, Mode::Eval) records into the target's own tapes;
//      input_grad(batch, seed) may then be called any number of times
//      (tapes are read-only during backward — DeepFool's K per-class
//      backwards rely on this). The tapes stay valid across optimizer
//      iterations until the next Eval forward: plain-ISTA EAD / C&W
//      score the candidate x^(k+1) in Eval mode and differentiate that
//      same forward in iteration k+1 (see attacks/ead.cpp).
//   2. logits(batch, Mode::Infer) is forward-only scoring and records
//      nothing; the tapes of the last Eval forward stay valid.
//   3. aux_loss / aux_input_grad run their own passes on each aux term's
//      own tapes, leaving the target's intact.
// Targets and aux terms own their tapes (reused across iterations) and
// share the models read-only: concurrent attacks each build their own.
//
// Oblivious slices: the oblivious attacks have no RNG and treat every
// image on its own (per-row losses, per-image binary search over c,
// per-row retirement), so an image's trajectory does not depend on the
// batch it is crafted in. craft_oblivious_slices uses that to spread one
// attack across the global ThreadPool: it cuts the images into min(T, N)
// contiguous slices, crafts each on one pool chunk against its own
// ObliviousTarget over the shared classifier, and concatenates the
// results in slice order — bitwise what one unsliced run computes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace adv::attacks {

struct AttackResult;  // attacks/common.hpp

/// Threat-model axis of an attack run. Encoded in cache tags (see
/// AttackTarget::tag_suffix) so artifacts crafted under different threat
/// models never collide in the ModelZoo cache.
enum class ThreatModel { Oblivious, GrayBox, DetectorAware };

const char* to_string(ThreatModel tm);

/// Per-row auxiliary objective term added to an attack's loss — in
/// practice a detector-evasion penalty: 0 when the row would pass the
/// detector, positive (scaled by how far over threshold it is) otherwise.
/// Implementations live next to what they differentiate (the MagNet
/// detector terms are in magnet/detector_grad.hpp).
class AuxObjective {
 public:
  virtual ~AuxObjective() = default;

  virtual std::string name() const = 0;

  /// Per-row penalty values; <= 0 means "this row evades the term".
  /// Forward-only (Mode::Infer internally).
  virtual std::vector<float> loss(const Tensor& batch) = 0;

  /// d(sum_i weight[i] * loss_i)/d(batch). Self-contained: runs its own
  /// forward passes on its own tapes.
  virtual Tensor input_grad(const Tensor& batch,
                            const std::vector<float>& weight) = 0;
};

/// What an attack optimizes against. See the file comment for the call
/// contract; see Attack::run / the free attack functions for use.
class AttackTarget {
 public:
  virtual ~AttackTarget() = default;

  virtual ThreatModel threat_model() const = 0;

  /// Cache-tag fragment appended to Attack::tag() when artifacts are
  /// cached per target (core::ModelZoo::run_attack). MUST be empty for
  /// the oblivious target — legacy cache keys carry no threat-model
  /// marker and oblivious artifacts must keep resolving to them — and
  /// non-empty (and distinct per configuration) for every other target.
  virtual std::string tag_suffix() const = 0;

  /// Forward pass to raw logits [N, K]. Mode::Eval records the tapes
  /// input_grad reads; Mode::Infer is forward-only scoring.
  virtual Tensor logits(const Tensor& batch, nn::Mode mode) = 0;

  /// Backpropagates `upstream` (d loss / d logits) through whatever
  /// logits(batch, Mode::Eval) ran, returning d loss / d batch. `batch`
  /// is the tensor the tapes were recorded from; repeated calls after one
  /// Eval forward are allowed.
  virtual Tensor input_grad(const Tensor& batch, const Tensor& upstream) = 0;

  /// Auxiliary objective terms (detector evasion). Targets without any
  /// report false and the defaults below are never called.
  virtual bool has_aux() const { return false; }

  /// Element-wise sum of every aux term's per-row loss.
  virtual std::vector<float> aux_loss(const Tensor& batch);

  /// Sum of every aux term's weighted input gradient.
  virtual Tensor aux_input_grad(const Tensor& batch,
                                const std::vector<float>& weight);
};

/// The paper's oblivious threat model: the bare (undefended) classifier.
/// The nn::Sequential& attack entry points route through this target;
/// Attack::run builds one per image slice (gated bitwise in
/// attack_target_test, oblivious_slice_test and the threat-model bench).
class ObliviousTarget final : public AttackTarget {
 public:
  explicit ObliviousTarget(const nn::Sequential& classifier)
      : classifier_(classifier) {}

  ThreatModel threat_model() const override { return ThreatModel::Oblivious; }
  std::string tag_suffix() const override { return ""; }
  Tensor logits(const Tensor& batch, nn::Mode mode) override;
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override;

 private:
  const nn::Sequential& classifier_;
  nn::Tape tape_;
};

/// Gray-box attacker (Carlini & Wagner's first MagNet scenario): knows a
/// reformer auto-encoder sits in front of the classifier and crafts
/// through the composition classifier(AE(x)). The models are NOT fused
/// into one Sequential: keeping them separate lets the same defender
/// instances be shared with detectors and the serving path.
class GrayBoxTarget final : public AttackTarget {
 public:
  /// `tag` must uniquely identify the composition in cache keys; the
  /// default covers "the defender's own reformer" (the bench's setup).
  GrayBoxTarget(const nn::Sequential& autoencoder,
                const nn::Sequential& classifier,
                std::string tag = "_tmgray")
      : ae_(autoencoder), classifier_(classifier), tag_(std::move(tag)) {}

  ThreatModel threat_model() const override { return ThreatModel::GrayBox; }
  std::string tag_suffix() const override { return tag_; }
  Tensor logits(const Tensor& batch, nn::Mode mode) override;
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override;

 private:
  const nn::Sequential& ae_;
  const nn::Sequential& classifier_;
  std::string tag_;
  nn::Tape ae_tape_, classifier_tape_;
};

/// Detector-aware attacker (Carlini & Wagner's full MagNet break): the
/// gray-box composition for logits/gradients plus hinged detector-evasion
/// penalties as auxiliary objective terms. `autoencoder` may be null for
/// a detector-only defense (logits then come from the bare classifier).
class DetectorAwareTarget final : public AttackTarget {
 public:
  DetectorAwareTarget(const nn::Sequential* autoencoder,
                      const nn::Sequential& classifier,
                      std::vector<std::shared_ptr<AuxObjective>> aux,
                      std::string tag = "_tmdet");

  ThreatModel threat_model() const override {
    return ThreatModel::DetectorAware;
  }
  std::string tag_suffix() const override { return tag_; }
  Tensor logits(const Tensor& batch, nn::Mode mode) override;
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override;

  bool has_aux() const override { return !aux_.empty(); }
  std::vector<float> aux_loss(const Tensor& batch) override;
  Tensor aux_input_grad(const Tensor& batch,
                        const std::vector<float>& weight) override;

  std::size_t aux_count() const { return aux_.size(); }

 private:
  const nn::Sequential* ae_;  // nullable
  const nn::Sequential& classifier_;
  std::vector<std::shared_ptr<AuxObjective>> aux_;
  std::string tag_;
  nn::Tape ae_tape_, classifier_tape_;
};

/// Half-open row range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Contiguous slice `index` of `count` over `total` rows:
/// [total*k/K, total*(k+1)/K). The slices tile [0, total) exactly and
/// differ in size by at most one. Throws std::invalid_argument unless
/// index < count.
IndexRange slice_range(std::size_t total, std::size_t index,
                       std::size_t count);

/// Concatenates per-slice results in the given order: merging the
/// slice_range slices of a result reproduces it bitwise.
AttackResult merge_attack_results(const std::vector<AttackResult>& parts);

/// One oblivious craft over a slice of images and labels. Returns one
/// result per output (one per decision rule for ead_attack_multi); every
/// call must return the same number.
using SliceCraft = std::function<std::vector<AttackResult>(
    AttackTarget& target, const Tensor& images,
    const std::vector<int>& labels)>;

/// Runs `craft` over min(T, N) contiguous slices of `images`/`labels`
/// (T = ThreadPool::global().max_chunks(), so a call from inside a pool
/// task is one slice), each on one pool chunk against an ObliviousTarget
/// of its own over `classifier`, whose passes then run inline. Returns,
/// per output, the slices' results concatenated in slice order. An
/// exception thrown by any slice is rethrown here once all have finished.
std::vector<AttackResult> craft_oblivious_slices(
    const nn::Sequential& classifier, const Tensor& images,
    const std::vector<int>& labels, const SliceCraft& craft);

}  // namespace adv::attacks
