// Core experiment-framework tests: config parsing, defense evaluation
// accounting, curve output, and cache keys.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/config.hpp"
#include "core/evaluation.hpp"
#include "core/magnet_factory.hpp"
#include "core/model_zoo.hpp"
#include "nn/linear.hpp"
#include "nn/structural.hpp"

namespace adv::core {
namespace {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(ScaleConfig, FastIsDefault) {
  EnvGuard guard("REPRO_SCALE", nullptr);
  const ScaleConfig cfg = scale_from_env();
  EXPECT_FALSE(cfg.full);
  EXPECT_EQ(cfg.tag(), "fast");
  EXPECT_GT(cfg.attack_count, 0u);
  EXPECT_FALSE(cfg.mnist_kappas.empty());
  EXPECT_FALSE(cfg.cifar_kappas.empty());
}

TEST(ScaleConfig, FullRaisesCounts) {
  EnvGuard guard("REPRO_SCALE", "full");
  const ScaleConfig full = scale_from_env();
  EnvGuard guard2("REPRO_SCALE", "fast");
  const ScaleConfig fast = scale_from_env();
  EXPECT_TRUE(full.full);
  EXPECT_GT(full.attack_iterations, fast.attack_iterations);
  EXPECT_GT(full.attack_count, fast.attack_count);
  EXPECT_GT(full.mnist_kappas.size(), fast.mnist_kappas.size());
  EXPECT_EQ(full.tag(), "full");
}

TEST(ScaleConfig, RejectsUnknownScale) {
  EnvGuard guard("REPRO_SCALE", "enormous");
  EXPECT_THROW(scale_from_env(), std::runtime_error);
}

TEST(ScaleConfig, CacheDirOverride) {
  EnvGuard guard("REPRO_SCALE", nullptr);
  EnvGuard guard2("REPRO_CACHE_DIR", "/tmp/adv_custom_cache");
  const ScaleConfig cfg = scale_from_env();
  EXPECT_EQ(cfg.cache_dir, std::filesystem::path("/tmp/adv_custom_cache"));
}

TEST(ScaleConfig, KappaAccessorSelectsDataset) {
  EnvGuard guard("REPRO_SCALE", nullptr);
  const ScaleConfig cfg = scale_from_env();
  EXPECT_EQ(&cfg.kappas(DatasetId::Mnist), &cfg.mnist_kappas);
  EXPECT_EQ(&cfg.kappas(DatasetId::Cifar), &cfg.cifar_kappas);
}

TEST(DatasetId, Names) {
  EXPECT_STREQ(to_string(DatasetId::Mnist), "mnist");
  EXPECT_STREQ(to_string(DatasetId::Cifar), "cifar");
}

TEST(MagnetVariant, Names) {
  EXPECT_STREQ(to_string(MagnetVariant::Default), "D");
  EXPECT_STREQ(to_string(MagnetVariant::Jsd), "D+JSD");
  EXPECT_STREQ(to_string(MagnetVariant::Wide), "D+256");
  EXPECT_STREQ(to_string(MagnetVariant::WideJsd), "D+256+JSD");
}

// --- evaluate_defense accounting -----------------------------------------

/// Classifier mapping pixel > 0.5 to class 1.
std::shared_ptr<nn::Sequential> step_classifier() {
  Rng rng(2);
  auto clf = std::make_shared<nn::Sequential>();
  clf->emplace<nn::Flatten>();
  auto& lin = clf->emplace<nn::Linear>(1, 2, rng);
  *lin.parameters()[0] = Tensor::from_data(Shape({1, 2}), {-10.0f, 10.0f});
  *lin.parameters()[1] = Tensor::from_data(Shape({2}), {5.0f, -5.0f});
  return clf;
}

class FixedDetector final : public magnet::Detector {
 public:
  explicit FixedDetector(std::vector<float> scores)
      : scores_(std::move(scores)) {}
  std::vector<float> scores_from(magnet::PassMemo&) const override {
    return scores_;
  }
  std::string name() const override { return "fixed"; }

 private:
  std::vector<float> scores_;
};

TEST(EvaluateDefense, CountsDetectedAndCorrectlyClassified) {
  auto pipe = std::make_shared<magnet::MagNetPipeline>(step_classifier());
  // Scores: row 0 fires, rows 1-3 pass.
  auto det = std::make_shared<FixedDetector>(
      std::vector<float>{1.0f, 0.0f, 0.0f, 0.0f});
  det->set_threshold(0.5f);
  pipe->add_detector(det);

  // Pixels: 0.9 (class 1), 0.9 (class 1), 0.1 (class 0), 0.9 (class 1).
  const Tensor crafted = Tensor::from_data(Shape({4, 1, 1, 1}),
                                           {0.9f, 0.9f, 0.1f, 0.9f});
  // True labels: 0, 0, 0, 1.
  // Row 0: detected -> defended. Row 1: predicted 1 != 0 -> attack wins.
  // Row 2: predicted 0 == 0 -> defended. Row 3: predicted 1 == 1 -> defended.
  const DefenseEval e = evaluate_defense(*pipe, crafted, {0, 0, 0, 1},
                                         magnet::DefenseScheme::Full);
  EXPECT_FLOAT_EQ(e.accuracy, 0.75f);
  EXPECT_FLOAT_EQ(e.detection_rate, 0.25f);
  EXPECT_FLOAT_EQ(e.asr, 0.25f);
}

TEST(EvaluateDefense, SchemeNoneIgnoresDetectors) {
  auto pipe = std::make_shared<magnet::MagNetPipeline>(step_classifier());
  auto det = std::make_shared<FixedDetector>(std::vector<float>{100.0f});
  det->set_threshold(0.5f);
  pipe->add_detector(det);
  const Tensor crafted = Tensor::from_data(Shape({1, 1, 1, 1}), {0.9f});
  const DefenseEval e =
      evaluate_defense(*pipe, crafted, {0}, magnet::DefenseScheme::None);
  EXPECT_FLOAT_EQ(e.detection_rate, 0.0f);
  EXPECT_FLOAT_EQ(e.accuracy, 0.0f);  // misclassified, not detected
}

TEST(EvaluateDefense, MismatchedLabelsThrow) {
  auto pipe = std::make_shared<magnet::MagNetPipeline>(step_classifier());
  const Tensor crafted({2, 1, 1, 1});
  EXPECT_THROW(
      evaluate_defense(*pipe, crafted, {0}, magnet::DefenseScheme::None),
      std::invalid_argument);
}

// --- curves ----------------------------------------------------------------

TEST(Curves, CsvRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "adv_core_test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "curves.csv";
  std::vector<SweepCurve> curves(2);
  curves[0] = {"cw", {0.0f, 5.0f}, {90.0f, 95.0f}};
  curves[1] = {"ead", {0.0f, 5.0f}, {50.0f, 20.0f}};
  write_curves_csv(path, curves);
  std::ifstream is(path);
  std::string header, row0, row1;
  std::getline(is, header);
  std::getline(is, row0);
  std::getline(is, row1);
  EXPECT_EQ(header, "kappa,cw,ead");
  EXPECT_EQ(row0, "0,90,50");
  EXPECT_EQ(row1, "5,95,20");
  std::filesystem::remove_all(dir);
}

TEST(Curves, RaggedCurvesThrowOnPrint) {
  std::vector<SweepCurve> curves(2);
  curves[0] = {"a", {0.0f, 5.0f}, {1.0f, 2.0f}};
  curves[1] = {"b", {0.0f}, {1.0f}};
  EXPECT_THROW(print_curves("t", curves), std::invalid_argument);
}

// --- magnet factory (cheap error paths only; full builds are in
// integration_test) ----------------------------------------------------------

TEST(MagnetFactory, CifarJsdVariantIsRejected) {
  ScaleConfig cfg;
  cfg.train_count = 30;
  cfg.val_count = 10;
  cfg.test_count = 10;
  cfg.classifier_epochs = 1;
  cfg.ae_epochs = 1;
  cfg.cache_dir = std::filesystem::temp_directory_path() / "adv_mf_test";
  ModelZoo zoo(cfg);
  EXPECT_THROW(build_magnet(zoo, DatasetId::Cifar, MagnetVariant::Jsd),
               std::invalid_argument);
  std::filesystem::remove_all(cfg.cache_dir);
}

}  // namespace
}  // namespace adv::core
