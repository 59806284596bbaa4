#include "core/magnet_factory.hpp"

#include <stdexcept>

#include "magnet/detector_grad.hpp"

namespace adv::core {
namespace {

// The reformer auto-encoder a variant serves with — must match
// build_magnet's selection exactly so gray-box attackers craft through
// the same (memoized) zoo instance the defense uses.
std::shared_ptr<nn::Sequential> reformer_ae_for(ModelZoo& zoo, DatasetId id,
                                                MagnetVariant variant,
                                                magnet::ReconLoss ae_loss) {
  const ScaleConfig& cfg = zoo.scale();
  const bool wide =
      variant == MagnetVariant::Wide || variant == MagnetVariant::WideJsd;
  const std::size_t filters =
      wide ? cfg.wide_filters : cfg.default_filters(id);
  const magnet::AeArch arch = id == DatasetId::Mnist
                                  ? magnet::AeArch::MnistDeep
                                  : magnet::AeArch::Cifar;
  return zoo.autoencoder(id, arch, filters, ae_loss);
}

}  // namespace

const char* to_string(MagnetVariant v) {
  switch (v) {
    case MagnetVariant::Default: return "D";
    case MagnetVariant::Jsd: return "D+JSD";
    case MagnetVariant::Wide: return "D+256";
    case MagnetVariant::WideJsd: return "D+256+JSD";
  }
  return "?";
}

std::shared_ptr<magnet::MagNetPipeline> build_magnet(
    ModelZoo& zoo, DatasetId id, MagnetVariant variant,
    magnet::ReconLoss ae_loss) {
  using magnet::AeArch;
  const ScaleConfig& cfg = zoo.scale();
  const bool wide =
      variant == MagnetVariant::Wide || variant == MagnetVariant::WideJsd;
  const bool jsd =
      variant == MagnetVariant::Jsd || variant == MagnetVariant::WideJsd;
  const std::size_t filters =
      wide ? cfg.wide_filters : cfg.default_filters(id);

  auto classifier = zoo.classifier(id);
  auto pipeline = std::make_shared<magnet::MagNetPipeline>(classifier);

  if (id == DatasetId::Mnist) {
    auto deep = zoo.autoencoder(id, AeArch::MnistDeep, filters, ae_loss);
    auto shallow = zoo.autoencoder(id, AeArch::MnistShallow, filters, ae_loss);
    pipeline->add_detector(
        std::make_shared<magnet::ReconstructionDetector>(deep, 2));
    pipeline->add_detector(
        std::make_shared<magnet::ReconstructionDetector>(shallow, 1));
    if (jsd) {
      pipeline->add_detector(
          std::make_shared<magnet::JsdDetector>(deep, classifier, 10.0f));
      pipeline->add_detector(
          std::make_shared<magnet::JsdDetector>(deep, classifier, 40.0f));
    }
    pipeline->set_reformer(std::make_shared<magnet::Reformer>(deep));
  } else {
    if (variant == MagnetVariant::Jsd || variant == MagnetVariant::WideJsd) {
      // The paper's CIFAR variants are D and D+256 only; the default CIFAR
      // MagNet already includes the JSD detectors.
      throw std::invalid_argument(
          "build_magnet: CIFAR variants are Default and Wide");
    }
    auto ae = zoo.autoencoder(id, AeArch::Cifar, filters, ae_loss);
    pipeline->add_detector(
        std::make_shared<magnet::ReconstructionDetector>(ae, 1));
    pipeline->add_detector(
        std::make_shared<magnet::ReconstructionDetector>(ae, 2));
    pipeline->add_detector(
        std::make_shared<magnet::JsdDetector>(ae, classifier, 10.0f));
    pipeline->add_detector(
        std::make_shared<magnet::JsdDetector>(ae, classifier, 40.0f));
    pipeline->set_reformer(std::make_shared<magnet::Reformer>(ae));
  }

  pipeline->calibrate(zoo.dataset(id).val.images, cfg.detector_fpr);
  return pipeline;
}

AttackTargetBundle build_attack_target(ModelZoo& zoo, DatasetId id,
                                       attacks::ThreatModel tm,
                                       MagnetVariant variant,
                                       magnet::ReconLoss ae_loss) {
  AttackTargetBundle b;
  b.classifier = zoo.classifier(id);
  switch (tm) {
    case attacks::ThreatModel::Oblivious:
      b.target = std::make_unique<attacks::ObliviousTarget>(*b.classifier);
      break;
    case attacks::ThreatModel::GrayBox:
      b.reformer_ae = reformer_ae_for(zoo, id, variant, ae_loss);
      b.target = std::make_unique<attacks::GrayBoxTarget>(*b.reformer_ae,
                                                          *b.classifier);
      break;
    case attacks::ThreatModel::DetectorAware:
      // The attacker models the calibrated defense itself: the pipeline's
      // own detector bank feeds the evasion terms, and the zoo's
      // memoization guarantees reformer_ae is the very instance the
      // pipeline's reformer wraps.
      b.pipeline = build_magnet(zoo, id, variant, ae_loss);
      b.reformer_ae = reformer_ae_for(zoo, id, variant, ae_loss);
      b.aux = magnet::detector_aux_terms(*b.pipeline);
      b.target = std::make_unique<attacks::DetectorAwareTarget>(
          b.reformer_ae.get(), *b.classifier, b.aux);
      break;
  }
  return b;
}

}  // namespace adv::core
