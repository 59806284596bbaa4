#include "attacks/target.hpp"

#include <algorithm>
#include <stdexcept>

#include "attacks/common.hpp"
#include "tensor/thread_pool.hpp"

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

IndexRange slice_range(std::size_t total, std::size_t index,
                       std::size_t count) {
  if (count == 0 || index >= count) {
    throw std::invalid_argument("slice_range: need index < count");
  }
  return {total * index / count, total * (index + 1) / count};
}

AttackResult merge_attack_results(const std::vector<AttackResult>& parts) {
  std::size_t total = 0;
  const AttackResult* first = nullptr;
  for (const auto& p : parts) {
    total += p.success.size();
    if (!first && !p.success.empty()) first = &p;
  }
  AttackResult out;
  if (!first) return out;
  std::vector<std::size_t> dims = first->adversarial.shape().dims();
  dims[0] = total;
  out.adversarial = Tensor(Shape(std::move(dims)));
  out.success.reserve(total);
  out.l1.reserve(total);
  out.l2.reserve(total);
  out.linf.reserve(total);
  std::size_t at = 0;
  for (const auto& p : parts) {
    if (p.success.empty()) continue;
    out.adversarial.set_rows(at, p.adversarial);
    out.success.insert(out.success.end(), p.success.begin(), p.success.end());
    out.l1.insert(out.l1.end(), p.l1.begin(), p.l1.end());
    out.l2.insert(out.l2.end(), p.l2.begin(), p.l2.end());
    out.linf.insert(out.linf.end(), p.linf.begin(), p.linf.end());
    at += p.success.size();
  }
  return out;
}

std::vector<AttackResult> craft_oblivious_slices(
    const nn::Sequential& classifier, const Tensor& images,
    const std::vector<int>& labels, const SliceCraft& craft) {
  ThreadPool& pool = ThreadPool::global();
  const std::size_t n = images.rank() == 0 ? 0 : images.dim(0);
  if (labels.size() != n) {
    throw std::invalid_argument(
        "craft_oblivious_slices: images/labels size mismatch");
  }
  const std::size_t slices = std::min(n, pool.max_chunks());
  if (slices <= 1) {
    ObliviousTarget target(classifier);
    return craft(target, images, labels);
  }
  std::vector<std::vector<AttackResult>> parts(slices);
  pool.parallel_for(0, slices, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      const IndexRange r = slice_range(n, s, slices);
      ObliviousTarget target(classifier);
      parts[s] = craft(target, images.slice_rows(r.begin, r.end),
                       std::vector<int>(labels.begin() + r.begin,
                                        labels.begin() + r.end));
    }
  });
  std::vector<AttackResult> out(parts[0].size());
  for (std::size_t o = 0; o < out.size(); ++o) {
    std::vector<AttackResult> column;
    column.reserve(slices);
    for (auto& p : parts) column.push_back(std::move(p.at(o)));
    out[o] = merge_attack_results(column);
  }
  return out;
}

}  // namespace adv::attacks
