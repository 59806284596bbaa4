// Concurrent use of shared models. Layers hold no per-call state (the
// tapes are caller-owned, nn/tape.hpp), so several threads may run
// passes over one model instance; these tests pin down that the results
// are then bitwise what a single thread computes. tools/ci.sh also runs
// this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "attacks/cw.hpp"
#include "attacks/ead.hpp"
#include "core/model_zoo.hpp"
#include "magnet/autoencoder.hpp"
#include "magnet/detector.hpp"
#include "magnet/pipeline.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv {
namespace {

using magnet::DefenseOutcome;
using magnet::DefenseScheme;

Tensor uniform_batch(std::size_t rows, std::size_t c, std::size_t hw,
                     std::uint64_t seed) {
  Tensor t({rows, c, hw, hw});
  Rng rng(seed);
  fill_uniform(t, rng, 0.0f, 1.0f);
  return t;
}

/// An untrained CIFAR-shaped MagNet on 8x8 images: the real classifier
/// and auto-encoder architectures (direct-conv, pooling and fused
/// Conv->activation paths), a reconstruction and a JSD detector with
/// thresholds that reject some rows, and the reformer.
std::shared_ptr<const magnet::MagNetPipeline> small_magnet() {
  Rng rng(7);
  auto clf = std::make_shared<nn::Sequential>(
      core::build_classifier(core::DatasetId::Cifar, 8, rng));
  magnet::AutoencoderConfig ac;
  ac.arch = magnet::AeArch::Cifar;
  ac.image_channels = 3;
  auto ae = std::make_shared<nn::Sequential>(
      magnet::build_autoencoder(ac, rng));
  auto pipe = std::make_shared<magnet::MagNetPipeline>(clf);
  auto recon = std::make_shared<magnet::ReconstructionDetector>(ae, 1);
  auto jsd = std::make_shared<magnet::JsdDetector>(ae, clf, 10.0f);
  // Median scores of a calibration batch: about half the rows fire.
  const Tensor calib = uniform_batch(16, 3, 8, 99);
  recon->calibrate(calib, 0.5f);
  jsd->calibrate(calib, 0.5f);
  pipe->add_detector(recon);
  pipe->add_detector(jsd);
  pipe->set_reformer(std::make_shared<magnet::Reformer>(ae));
  return pipe;
}

bool outcomes_bitwise_equal(const DefenseOutcome& a, const DefenseOutcome& b) {
  if (a.rejected != b.rejected || a.predicted != b.predicted ||
      a.readings.size() != b.readings.size()) {
    return false;
  }
  for (std::size_t d = 0; d < a.readings.size(); ++d) {
    const auto& x = a.readings[d].scores;
    const auto& y = b.readings[d].scores;
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool tensors_bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Four threads classify through ONE pipeline, mixing schemes and batch
// sizes; every outcome must be bitwise the serial reference. The
// reference comes from an identically built twin, so the shared
// pipeline's first passes (lazy timer resolution, with obs on) run
// concurrently too.
TEST(Concurrency, ClassifyThreadsMatchSerialBitwise) {
  const bool obs_was = obs::enabled();
  if (!obs::enabled_pinned_by_env()) obs::set_enabled(true);
  struct Request {
    Tensor rows;
    DefenseScheme scheme;
  };
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 8; ++i) {
    requests.push_back({uniform_batch(i % 2 ? 8 : 1, 3, 8, 100 + i),
                        i % 4 < 2 ? DefenseScheme::Full
                                  : DefenseScheme::DetectorOnly});
  }
  std::vector<DefenseOutcome> serial;
  {
    const auto reference = small_magnet();
    for (const Request& r : requests) {
      serial.push_back(reference->classify(r.rows, r.scheme));
    }
  }

  const auto shared = small_magnet();
  std::atomic<std::size_t> mismatches{0}, calls{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 2; ++round) {
        for (std::size_t k = 0; k < requests.size(); ++k) {
          const std::size_t i = (k + 2 * t) % requests.size();
          const DefenseOutcome out =
              shared->classify(requests[i].rows, requests[i].scheme);
          if (!outcomes_bitwise_equal(out, serial[i])) ++mismatches;
          ++calls;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  if (!obs::enabled_pinned_by_env()) obs::set_enabled(obs_was);
  EXPECT_EQ(calls.load(), 4u * 2u * requests.size());
  EXPECT_EQ(mismatches.load(), 0u);
}

// Row-parallel attacks in one process: two threads each run EAD, then
// C&W-L2, on one half of the batch through their own ObliviousTarget over
// one shared classifier. Attack rows are independent, so the halves,
// concatenated, must equal the single-thread full-batch runs bitwise.
TEST(Concurrency, RowParallelAttacksMatchFullBatchBitwise) {
  Rng rng(11);
  const nn::Sequential clf =
      core::build_classifier(core::DatasetId::Mnist, 8, rng);
  const std::size_t n = 8, half = n / 2;
  const Tensor images = uniform_batch(n, 1, 8, 12);
  const std::vector<int> labels = nn::predict_labels(clf, images);

  attacks::EadConfig ead;
  ead.iterations = 30;
  ead.binary_search_steps = 3;
  ead.initial_c = 10.0f;
  ead.learning_rate = 0.1f;
  attacks::CwL2Config cw;
  cw.iterations = 30;
  cw.binary_search_steps = 3;
  cw.initial_c = 10.0f;
  cw.learning_rate = 0.1f;

  attacks::AttackResult full_ead, full_cw;
  {
    attacks::ObliviousTarget target(clf);
    full_ead = attacks::ead_attack(target, images, labels, ead);
    full_cw = attacks::cw_l2_attack(target, images, labels, cw);
  }

  attacks::AttackResult part_ead[2], part_cw[2];
  std::vector<std::thread> threads;
  for (std::size_t h = 0; h < 2; ++h) {
    threads.emplace_back([&, h] {
      attacks::ObliviousTarget target(clf);
      const Tensor x = images.slice_rows(h * half, (h + 1) * half);
      const std::vector<int> y(labels.begin() + h * half,
                               labels.begin() + (h + 1) * half);
      part_ead[h] = attacks::ead_attack(target, x, y, ead);
      part_cw[h] = attacks::cw_l2_attack(target, x, y, cw);
    });
  }
  for (auto& th : threads) th.join();

  const auto expect_concat_equal = [&](const attacks::AttackResult& full,
                                       const attacks::AttackResult* parts,
                                       const char* what) {
    for (std::size_t h = 0; h < 2; ++h) {
      const attacks::AttackResult& p = parts[h];
      const Tensor rows = full.adversarial.slice_rows(h * half, (h + 1) * half);
      EXPECT_TRUE(tensors_bitwise_equal(p.adversarial, rows))
          << what << " half " << h;
      for (std::size_t i = 0; i < half; ++i) {
        const std::size_t r = h * half + i;
        EXPECT_EQ(p.success[i], full.success[r]) << what << " row " << r;
        EXPECT_EQ(0, std::memcmp(&p.l1[i], &full.l1[r], sizeof(float)));
        EXPECT_EQ(0, std::memcmp(&p.l2[i], &full.l2[r], sizeof(float)));
        EXPECT_EQ(0, std::memcmp(&p.linf[i], &full.linf[r], sizeof(float)));
      }
    }
  };
  expect_concat_equal(full_ead, part_ead, "ead");
  expect_concat_equal(full_cw, part_cw, "cw-l2");
  // Not a vacuous comparison: the attacks moved some rows.
  EXPECT_GT(full_ead.success_count() + full_cw.success_count(), 0u);
}

// ServeDaemon start/stop while clients keep connecting: stop() must wake
// the accept thread, join it and only then close the listening socket,
// and every client must come away with an answer or a typed error.
TEST(Concurrency, DaemonStartStopWhileClientsConnect) {
  const auto pipe = small_magnet();
  serve::ServeConfig cfg;
  cfg.socket_path = std::filesystem::temp_directory_path() /
                    ("adv_conc_" + std::to_string(::getpid()) + ".sock");
  cfg.batch = {4, std::chrono::microseconds{100}};
  std::atomic<std::size_t> answered{0};
  for (int cycle = 0; cycle < 4; ++cycle) {
    serve::ServeDaemon daemon([pipe] { return pipe; }, cfg);
    daemon.start();
    std::atomic<bool> done{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&] {
        serve::ClientConfig ccfg;
        ccfg.connect_timeout = std::chrono::milliseconds{500};
        ccfg.recv_timeout = std::chrono::milliseconds{2000};
        while (!done.load()) {
          try {
            serve::ServeClient client(cfg.socket_path, ccfg);
            if (client.ping()) ++answered;
          } catch (const std::exception&) {
            // Refused, reset or closed by the stopping daemon: expected.
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    daemon.stop();
    EXPECT_FALSE(std::filesystem::exists(cfg.socket_path));
    done.store(true);
    for (auto& th : clients) th.join();
  }
  EXPECT_GT(answered.load(), 0u);
}

}  // namespace
}  // namespace adv
