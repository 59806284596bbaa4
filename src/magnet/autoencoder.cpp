#include "magnet/autoencoder.hpp"

#include <cmath>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::magnet {

nn::Sequential build_autoencoder(const AutoencoderConfig& cfg, Rng& rng) {
  using nn::Conv2d;
  nn::Sequential model;
  const std::size_t f = cfg.filters;
  const std::size_t c = cfg.image_channels;
  switch (cfg.arch) {
    case AeArch::MnistDeep:
      model.emplace<Conv2d>(Conv2d::same(c, f), rng);
      model.emplace<nn::Sigmoid>();
      model.emplace<nn::AvgPool2d>(2);
      model.emplace<Conv2d>(Conv2d::same(f, f), rng);
      model.emplace<nn::Sigmoid>();
      model.emplace<Conv2d>(Conv2d::same(f, f), rng);
      model.emplace<nn::Sigmoid>();
      model.emplace<nn::Upsample2d>(2);
      model.emplace<Conv2d>(Conv2d::same(f, f), rng);
      model.emplace<nn::Sigmoid>();
      model.emplace<Conv2d>(Conv2d::same(f, c), rng);
      model.emplace<nn::Sigmoid>();
      break;
    case AeArch::MnistShallow:
    case AeArch::Cifar:
      // Identical topology; kept distinct for configuration clarity (the
      // paper tunes them per dataset).
      model.emplace<Conv2d>(Conv2d::same(c, f), rng);
      model.emplace<nn::Sigmoid>();
      model.emplace<Conv2d>(Conv2d::same(f, f), rng);
      model.emplace<nn::Sigmoid>();
      model.emplace<Conv2d>(Conv2d::same(f, c), rng);
      model.emplace<nn::Sigmoid>();
      break;
  }
  return model;
}

std::shared_ptr<nn::Sequential> train_autoencoder(const AutoencoderConfig& cfg,
                                                  const Tensor& images,
                                                  nn::TrainStats* stats) {
  Rng rng(cfg.seed);
  auto model = std::make_shared<nn::Sequential>(build_autoencoder(cfg, rng));
  nn::GradientSet grads(*model);
  nn::Adam opt(model->parameters(), grads.pointers(), cfg.learning_rate);
  nn::TrainConfig tc;
  tc.epochs = cfg.epochs;
  tc.batch_size = cfg.batch_size;
  tc.shuffle_seed = cfg.seed + 1;
  nn::TrainStats s;
  if (cfg.loss == ReconLoss::Mse) {
    nn::MseLoss loss;
    s = nn::fit_autoencoder(*model, images, loss, cfg.train_noise_std, opt, tc);
  } else {
    nn::MaeLoss loss;
    s = nn::fit_autoencoder(*model, images, loss, cfg.train_noise_std, opt, tc);
  }
  if (stats) *stats = std::move(s);
  return model;
}

float mean_reconstruction_error(nn::Sequential& ae, const Tensor& images) {
  const Tensor recon = nn::predict(ae, images);
  return l1_distance(recon, images) / static_cast<float>(images.numel());
}

}  // namespace adv::magnet
