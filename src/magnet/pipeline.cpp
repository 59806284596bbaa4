#include "magnet/pipeline.hpp"

#include <stdexcept>

#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::magnet {
namespace {

// Per-stage serving latency (adv::obs; null unless enabled). A stage
// times the passes it is the first to need. Handles resolve once, so a
// traced pass takes no registry lock.
obs::Timer* detectors_timer() {
  if (!obs::enabled()) return nullptr;
  static auto& t =
      obs::MetricsRegistry::global().timer("magnet/stage/detectors");
  return &t;
}
obs::Timer* reformer_timer() {
  if (!obs::enabled()) return nullptr;
  static auto& t =
      obs::MetricsRegistry::global().timer("magnet/stage/reformer");
  return &t;
}
obs::Timer* classifier_timer() {
  if (!obs::enabled()) return nullptr;
  static auto& t =
      obs::MetricsRegistry::global().timer("magnet/stage/classifier");
  return &t;
}

}  // namespace

const char* to_string(DefenseScheme s) {
  switch (s) {
    case DefenseScheme::None: return "no defense";
    case DefenseScheme::DetectorOnly: return "detector";
    case DefenseScheme::ReformerOnly: return "reformer";
    case DefenseScheme::Full: return "detector & reformer";
  }
  return "?";
}

DefenseOutcome DefenseOutcome::slice_rows(std::size_t begin,
                                          std::size_t end) const {
  if (begin > end || end > predicted.size()) {
    throw std::out_of_range("DefenseOutcome::slice_rows: bad range [" +
                            std::to_string(begin) + ", " +
                            std::to_string(end) + ") of " +
                            std::to_string(predicted.size()));
  }
  DefenseOutcome out;
  out.rejected.assign(rejected.begin() + static_cast<std::ptrdiff_t>(begin),
                      rejected.begin() + static_cast<std::ptrdiff_t>(end));
  out.predicted.assign(predicted.begin() + static_cast<std::ptrdiff_t>(begin),
                       predicted.begin() + static_cast<std::ptrdiff_t>(end));
  out.readings.reserve(readings.size());
  for (const DetectorReading& r : readings) {
    DetectorReading s;
    s.name = r.name;
    s.threshold = r.threshold;
    s.scores.assign(r.scores.begin() + static_cast<std::ptrdiff_t>(begin),
                    r.scores.begin() + static_cast<std::ptrdiff_t>(end));
    out.readings.push_back(std::move(s));
  }
  return out;
}

Reformer::Reformer(std::shared_ptr<nn::Sequential> autoencoder)
    : ae_(std::move(autoencoder)) {
  if (!ae_) throw std::invalid_argument("Reformer: null autoencoder");
}

Tensor Reformer::reform(const Tensor& batch) const {
  return nn::predict(*ae_, batch);
}

MagNetPipeline::MagNetPipeline(std::shared_ptr<nn::Sequential> classifier)
    : classifier_(std::move(classifier)) {
  if (!classifier_) throw std::invalid_argument("MagNetPipeline: null classifier");
}

void MagNetPipeline::add_detector(std::shared_ptr<Detector> detector) {
  if (!detector) throw std::invalid_argument("add_detector: null detector");
  detectors_.push_back(std::move(detector));
}

void MagNetPipeline::set_reformer(std::shared_ptr<Reformer> reformer) {
  reformer_ = std::move(reformer);
}

void MagNetPipeline::calibrate(const Tensor& clean_validation, float fpr) {
  PassMemo memo(clean_validation);
  for (auto& d : detectors_) d->calibrate_scores(d->scores_from(memo), fpr);
}

DefenseOutcome MagNetPipeline::classify(const Tensor& batch,
                                        DefenseScheme scheme) const {
  const std::size_t n = batch.dim(0);
  DefenseOutcome out;
  out.rejected.assign(n, false);

  const bool use_detectors = scheme == DefenseScheme::DetectorOnly ||
                             scheme == DefenseScheme::Full;
  const bool use_reformer = (scheme == DefenseScheme::ReformerOnly ||
                             scheme == DefenseScheme::Full) &&
                            reformer_ != nullptr;

  // One memo per call: detectors, reformer and classifier share every
  // model pass they have in common (see classify's contract).
  PassMemo memo(batch);
  if (use_detectors) {
    obs::ScopedTimer t(detectors_timer());
    out.readings.reserve(detectors_.size());
    for (const auto& d : detectors_) {
      DetectorReading reading;
      reading.name = d->name();
      reading.threshold = d->threshold();  // throws if not calibrated
      reading.scores = d->scores_from(memo);
      for (std::size_t i = 0; i < n; ++i) {
        if (reading.reject_row(i)) out.rejected[i] = true;
      }
      out.readings.push_back(std::move(reading));
    }
  }

  const nn::Sequential* reformer_ae = nullptr;
  if (use_reformer) {
    obs::ScopedTimer t(reformer_timer());
    reformer_ae = reformer_->autoencoder().get();
    memo.reconstruction(*reformer_ae);
  }
  {
    obs::ScopedTimer t(classifier_timer());
    // Row argmax of the logits, exactly as nn::predict_labels.
    const Tensor& logits = memo.logits(*classifier_, reformer_ae);
    out.predicted.resize(logits.dim(0));
    for (std::size_t r = 0; r < logits.dim(0); ++r) {
      out.predicted[r] = static_cast<int>(argmax_row(logits, r));
    }
  }
  return out;
}

float MagNetPipeline::clean_accuracy(const Tensor& images,
                                     const std::vector<int>& labels,
                                     DefenseScheme scheme) const {
  if (images.dim(0) != labels.size()) {
    throw std::invalid_argument("clean_accuracy: image/label count mismatch");
  }
  const DefenseOutcome o = classify(images, scheme);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    // A rejected clean input counts as an error (it is not classified).
    if (!o.rejected[i] && o.predicted[i] == labels[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(labels.size());
}

}  // namespace adv::magnet
