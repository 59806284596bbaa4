#include "attacks/target.hpp"

#include <stdexcept>

namespace adv::attacks {

const char* to_string(ThreatModel tm) {
  switch (tm) {
    case ThreatModel::Oblivious:
      return "oblivious";
    case ThreatModel::GrayBox:
      return "gray-box";
    case ThreatModel::DetectorAware:
      return "detector-aware";
  }
  return "?";
}

std::vector<float> AttackTarget::aux_loss(const Tensor& batch) {
  (void)batch;
  throw std::logic_error("AttackTarget::aux_loss called on a target with no "
                         "auxiliary terms (check has_aux() first)");
}

Tensor AttackTarget::aux_input_grad(const Tensor& batch,
                                    const std::vector<float>& weight) {
  (void)batch;
  (void)weight;
  throw std::logic_error("AttackTarget::aux_input_grad called on a target "
                         "with no auxiliary terms (check has_aux() first)");
}

Tensor ObliviousTarget::logits(const Tensor& batch, nn::Mode mode) {
  return classifier_.forward(batch, mode, &tape_);
}

Tensor ObliviousTarget::input_grad(const Tensor& batch,
                                   const Tensor& upstream) {
  (void)batch;
  return classifier_.backward(upstream, tape_);
}

Tensor GrayBoxTarget::logits(const Tensor& batch, nn::Mode mode) {
  return classifier_.forward(ae_.forward(batch, mode, &ae_tape_), mode,
                             &classifier_tape_);
}

Tensor GrayBoxTarget::input_grad(const Tensor& batch, const Tensor& upstream) {
  (void)batch;
  return ae_.backward(classifier_.backward(upstream, classifier_tape_),
                      ae_tape_);
}

DetectorAwareTarget::DetectorAwareTarget(
    const nn::Sequential* autoencoder, const nn::Sequential& classifier,
    std::vector<std::shared_ptr<AuxObjective>> aux, std::string tag)
    : ae_(autoencoder),
      classifier_(classifier),
      aux_(std::move(aux)),
      tag_(std::move(tag)) {
  for (const auto& term : aux_) {
    if (!term) {
      throw std::invalid_argument("DetectorAwareTarget: null aux term");
    }
  }
}

Tensor DetectorAwareTarget::logits(const Tensor& batch, nn::Mode mode) {
  if (!ae_) return classifier_.forward(batch, mode, &classifier_tape_);
  return classifier_.forward(ae_->forward(batch, mode, &ae_tape_), mode,
                             &classifier_tape_);
}

Tensor DetectorAwareTarget::input_grad(const Tensor& batch,
                                       const Tensor& upstream) {
  (void)batch;
  Tensor g = classifier_.backward(upstream, classifier_tape_);
  if (!ae_) return g;
  return ae_->backward(g, ae_tape_);
}

std::vector<float> DetectorAwareTarget::aux_loss(const Tensor& batch) {
  std::vector<float> total(batch.dim(0), 0.0f);
  for (const auto& term : aux_) {
    const std::vector<float> part = term->loss(batch);
    if (part.size() != total.size()) {
      throw std::logic_error("aux term '" + term->name() +
                             "' returned wrong row count");
    }
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += part[i];
  }
  return total;
}

Tensor DetectorAwareTarget::aux_input_grad(const Tensor& batch,
                                           const std::vector<float>& weight) {
  if (weight.size() != batch.dim(0)) {
    throw std::invalid_argument("aux_input_grad: weight/batch size mismatch");
  }
  Tensor total(batch.shape());
  for (const auto& term : aux_) {
    const Tensor part = term->input_grad(batch, weight);
    for (std::size_t j = 0; j < total.numel(); ++j) total[j] += part[j];
  }
  return total;
}

}  // namespace adv::attacks
