// Unified attack API: a polymorphic Attack interface over the free-function
// attack implementations, plus a string-keyed registry so experiment
// drivers can select attacks by name ("fgsm", "ifgsm", "cw-l2", "deepfool",
// "ead") instead of hard-wiring one entry point per algorithm.
//
// Adapters are thin: each wraps a legacy config struct and forwards run()
// to the corresponding free function, so a registry-built attack produces
// results identical to a direct call. Attacks run against an AttackTarget
// (attacks/target.hpp) — the threat-model seam; the nn::Sequential&
// overload is the oblivious special case and crafts as image slices, each
// through an ObliviousTarget of its own (bitwise-identical results).
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/cw.hpp"
#include "attacks/deepfool.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/target.hpp"
#include "obs/metrics.hpp"

namespace adv::attacks {

/// Optional knob overrides applied on top of an attack's default config
/// when it is built by name. AttackRegistry::create is strict: setting a
/// field the chosen attack does not consume (e.g. beta for FGSM) throws,
/// with the message naming the offending field — a silently-ignored knob
/// is almost always a misconfigured experiment.
struct AttackOverrides {
  std::optional<float> kappa;
  std::optional<float> beta;
  std::optional<float> epsilon;
  std::optional<float> learning_rate;
  std::optional<float> initial_c;
  std::optional<float> overshoot;
  std::optional<std::size_t> iterations;
  std::optional<std::size_t> binary_search_steps;
  std::optional<DecisionRule> rule;
  std::optional<HingeMode> mode;
};

/// Names of the fields set (non-nullopt) in `o`, in declaration order.
/// The registry's strictness check compares these against the chosen
/// attack's relevant-field list.
std::vector<std::string> overrides_set_fields(const AttackOverrides& o);

/// RAII metrics recorder for one attack run. When obs::enabled() at
/// construction, records under "attack/<name>/...":
///   runs, images, iterations (configured budget), grad_queries and
///   forward_passes (deltas of the Sequential model/_calls counters over
///   the scope), successes, a "run" wall-time timer, and — via
///   record_outcome on a successful result — a "time_to_success" timer
///   (wall time until the attack produced its successful examples).
/// Attack::run applies it automatically; direct callers of the free
/// attack functions (e.g. ModelZoo's shared-run EAD path) instantiate it
/// themselves.
class AttackMetricsScope {
 public:
  AttackMetricsScope(std::string name, std::size_t configured_iterations,
                     std::size_t image_count);
  AttackMetricsScope(const AttackMetricsScope&) = delete;
  AttackMetricsScope& operator=(const AttackMetricsScope&) = delete;
  ~AttackMetricsScope();

  /// Adds success statistics; call once per produced result (the shared
  /// EAD run records the outcome of one decision rule only, since the
  /// rules share success flags).
  void record_outcome(const AttackResult& result);

 private:
  bool active_ = false;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t forward0_ = 0;
  std::uint64_t backward0_ = 0;
};

/// Polymorphic attack: craft adversarial examples for `images` against an
/// AttackTarget (oblivious / gray-box / detector-aware). In untargeted
/// mode `labels` are the true labels; in targeted mode they are the
/// attack targets.
class Attack {
 public:
  virtual ~Attack() = default;

  /// Registry name of the algorithm, e.g. "ead".
  virtual std::string name() const = 0;

  /// Stable parameter-bearing identifier, e.g. "ead_b0.01_k15_EN_i1000".
  /// Distinct configurations must yield distinct tags — caching layers
  /// (core::ModelZoo) key stored artifacts on it, with the target's
  /// tag_suffix() appended to separate threat models.
  virtual std::string tag() const = 0;

  /// Configured per-binary-search-step iteration budget (0 when the
  /// notion does not apply). Feeds the "attack/<name>/iterations" metric.
  virtual std::size_t configured_iterations() const { return 0; }

  /// Template method: wraps run_impl in an AttackMetricsScope so every
  /// registry-built attack reports iterations, gradient queries and
  /// time-to-success uniformly. Results are identical to calling the
  /// underlying free function directly.
  AttackResult run(AttackTarget& target, const Tensor& images,
                   const std::vector<int>& labels) const;

  /// Oblivious overload: crafts as contiguous image slices across the
  /// global pool, each against an ObliviousTarget of its own over `model`
  /// (craft_oblivious_slices), bitwise-identical to run(ObliviousTarget)
  /// over the whole batch. One metrics scope covers every slice.
  AttackResult run(nn::Sequential& model, const Tensor& images,
                   const std::vector<int>& labels) const;

 protected:
  /// The algorithm itself; subclasses implement this instead of run().
  virtual AttackResult run_impl(AttackTarget& target, const Tensor& images,
                                const std::vector<int>& labels) const = 0;
};

class FgsmAttack final : public Attack {
 public:
  /// `name` distinguishes the registry's single-step "fgsm" from the
  /// multi-step "ifgsm" alias in tags and metrics; both share the
  /// algorithm and config.
  explicit FgsmAttack(FgsmConfig cfg = {}, std::string name = "fgsm")
      : cfg_(cfg), name_(std::move(name)) {}
  std::string name() const override;
  std::string tag() const override;
  std::size_t configured_iterations() const override {
    return cfg_.iterations;
  }
  FgsmConfig& config() { return cfg_; }
  const FgsmConfig& config() const { return cfg_; }

 protected:
  AttackResult run_impl(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels) const override;

 private:
  FgsmConfig cfg_;
  std::string name_;
};

class CwL2Attack final : public Attack {
 public:
  explicit CwL2Attack(CwL2Config cfg = {}) : cfg_(cfg) {}
  std::string name() const override;
  std::string tag() const override;
  std::size_t configured_iterations() const override {
    return cfg_.iterations;
  }
  CwL2Config& config() { return cfg_; }
  const CwL2Config& config() const { return cfg_; }

 protected:
  AttackResult run_impl(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels) const override;

 private:
  CwL2Config cfg_;
};

class DeepFoolAttack final : public Attack {
 public:
  explicit DeepFoolAttack(DeepFoolConfig cfg = {}) : cfg_(cfg) {}
  std::string name() const override;
  std::string tag() const override;
  std::size_t configured_iterations() const override {
    return cfg_.max_iterations;
  }
  DeepFoolConfig& config() { return cfg_; }
  const DeepFoolConfig& config() const { return cfg_; }

 protected:
  AttackResult run_impl(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels) const override;

 private:
  DeepFoolConfig cfg_;
};

class EadAttack final : public Attack {
 public:
  explicit EadAttack(EadConfig cfg = {}) : cfg_(cfg) {}
  std::string name() const override;
  std::string tag() const override;
  std::size_t configured_iterations() const override {
    return cfg_.iterations;
  }
  EadConfig& config() { return cfg_; }
  const EadConfig& config() const { return cfg_; }

 protected:
  AttackResult run_impl(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels) const override;

 private:
  EadConfig cfg_;
};

/// String-keyed attack factory registry. The four built-in algorithms
/// (plus the "ifgsm" multi-step alias) are registered on first use;
/// out-of-tree attacks can add themselves via add().
class AttackRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Attack>(const AttackOverrides&)>;

  /// Process-wide registry with the built-ins pre-registered.
  static AttackRegistry& instance();

  /// Registers a factory that consumes every AttackOverrides field
  /// (create() then checks nothing). Throws std::invalid_argument on a
  /// duplicate name.
  void add(const std::string& name, Factory factory);

  /// Registers a factory together with the override fields it consumes
  /// (names as in AttackOverrides; see overrides_set_fields). create()
  /// rejects overrides that set any other field.
  void add(const std::string& name, std::vector<std::string> relevant_fields,
           Factory factory);

  /// Builds the named attack. Throws std::invalid_argument for unknown
  /// names (the message lists what is registered) and for overrides that
  /// set a field irrelevant to the attack (the message names the field;
  /// the "attack/overrides_rejected" obs counter is bumped first).
  std::unique_ptr<Attack> create(const std::string& name,
                                 const AttackOverrides& overrides = {}) const;

  bool contains(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  struct Entry {
    Factory factory;
    std::vector<std::string> relevant;  // empty + !strict: accepts all
    bool strict = false;
  };

  AttackRegistry();
  std::map<std::string, Entry> factories_;
};

/// Convenience wrapper over AttackRegistry::instance().create().
std::unique_ptr<Attack> make_attack(const std::string& name,
                                    const AttackOverrides& overrides = {});

}  // namespace adv::attacks
