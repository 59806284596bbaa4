// ModelZoo: builds, trains and caches every artifact the experiments
// share — datasets, classifiers, MagNet auto-encoders, and crafted
// adversarial examples.
//
// Training a classifier or running a 1000-iteration attack sweep is
// expensive; fifteen bench binaries reproduce overlapping figures, so all
// artifacts are cached on disk under ScaleConfig::cache_dir keyed by
// ScaleConfig::cache_tag() — the fast/full profile plus a hash of every
// artifact-affecting scale field, so zoos with different counts can share
// one cache_dir safely. Deleting the cache directory forces recomputation.
//
// The cache self-heals: a load that fails for any reason (bad magic or
// version, CRC mismatch, truncation, shape mismatch) quarantines the file
// to `<name>.corrupt`, bumps the `fault/cache_quarantined` counter, and
// transparently recomputes the artifact (`fault/cache_rebuilt`) instead
// of throwing, so a single bit-flipped file cannot kill a long run.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "attacks/attack.hpp"
#include "attacks/ead.hpp"
#include "core/config.hpp"
#include "data/dataset.hpp"
#include "magnet/autoencoder.hpp"
#include "nn/sequential.hpp"

namespace adv::core {

/// Builds the (untrained) CNN classifier for a dataset.
nn::Sequential build_classifier(DatasetId id, std::size_t image_hw,
                                Rng& rng);

class ModelZoo {
 public:
  explicit ModelZoo(ScaleConfig cfg);

  const ScaleConfig& scale() const { return cfg_; }

  struct Splits {
    data::Dataset train, val, test;
  };

  /// Deterministic synthetic train/val/test splits for `id`.
  const Splits& dataset(DatasetId id);

  /// Trained classifier (cached). Prints a one-line training note on a
  /// cache miss.
  std::shared_ptr<nn::Sequential> classifier(DatasetId id);

  /// Clean test accuracy of the undefended classifier.
  float clean_test_accuracy(DatasetId id);

  /// Trained MagNet auto-encoder (cached) for the given architecture,
  /// width and reconstruction loss.
  std::shared_ptr<nn::Sequential> autoencoder(DatasetId id,
                                              magnet::AeArch arch,
                                              std::size_t filters,
                                              magnet::ReconLoss loss);

  struct AttackSet {
    Tensor images;            // first N correctly classified test images
    std::vector<int> labels;  // their true labels
  };

  /// The fixed set of attacked images (paper: 1000 correctly classified
  /// test images).
  const AttackSet& attack_set(DatasetId id);

  // --- cached attacks (crafted on the UNDEFENDED classifier) -----------

  /// Runs any attacks::Attack (typically built by name through the
  /// AttackRegistry) against the fixed attack set, caching the result on
  /// disk keyed by the attack's tag(). Crafts through
  /// attack.run(classifier), i.e. as image slices across the global pool.
  attacks::AttackResult run_attack(DatasetId id,
                                   const attacks::Attack& attack);

  /// Threat-model-aware variant: crafts through `target` instead of the
  /// bare classifier, unsliced (a target owns its tapes; its passes run
  /// as row blocks). The cache key gains target.tag_suffix(), so
  /// gray-box/detector-aware artifacts never collide with oblivious ones
  /// (whose empty suffix preserves every pre-existing cache key).
  attacks::AttackResult run_attack(DatasetId id,
                                   const attacks::Attack& attack,
                                   attacks::AttackTarget& target);

  /// Scale-derived override defaults (iterations, binary-search steps,
  /// initial c, learning rate) for building registry attacks that match
  /// this zoo's experiment budget.
  attacks::AttackOverrides attack_defaults(DatasetId id) const;

  // Named convenience wrappers over run_attack, kept for the bench
  // binaries. ead() additionally shares one optimization run across the
  // EN and L1 decision rules (ead_attack_multi, crafted as image slices
  // like run_attack), which run_attack cannot.
  attacks::AttackResult cw(DatasetId id, float kappa);
  attacks::AttackResult ead(DatasetId id, float beta, float kappa,
                            attacks::DecisionRule rule);
  attacks::AttackResult fgsm(DatasetId id, float epsilon,
                             std::size_t iterations);
  attacks::AttackResult deepfool(DatasetId id);

 private:
  enum class CacheLoad { Hit, Miss, Corrupt };

  std::filesystem::path path_for(const std::string& key) const;
  /// Runs `do_load` if `path` exists. Any load exception quarantines the
  /// file to `<path>.corrupt` (counter: fault/cache_quarantined) and
  /// returns Corrupt so the caller recomputes; callers bump
  /// fault/cache_rebuilt after rebuilding a Corrupt entry.
  static CacheLoad try_load_cached(const std::filesystem::path& path,
                                   const std::function<void()>& do_load);
  static void note_rebuilt(CacheLoad reason);
  attacks::AttackResult cached_attack(
      const std::string& key,
      const std::function<attacks::AttackResult()>& compute);

  ScaleConfig cfg_;
  std::map<DatasetId, Splits> datasets_;
  std::map<DatasetId, std::shared_ptr<nn::Sequential>> classifiers_;
  std::map<std::string, std::shared_ptr<nn::Sequential>> autoencoders_;
  std::map<DatasetId, AttackSet> attack_sets_;
  std::map<std::string, attacks::AttackResult> attack_memo_;
};

}  // namespace adv::core
