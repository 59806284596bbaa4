#include "attacks/attack.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace adv::attacks {
namespace {

// Compact float formatting for cache tags: 0.01 -> "0.01", 15 -> "15".
std::string fmt(float v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(v));
  return buf;
}

}  // namespace

std::vector<std::string> overrides_set_fields(const AttackOverrides& o) {
  std::vector<std::string> out;
  if (o.kappa) out.emplace_back("kappa");
  if (o.beta) out.emplace_back("beta");
  if (o.epsilon) out.emplace_back("epsilon");
  if (o.learning_rate) out.emplace_back("learning_rate");
  if (o.initial_c) out.emplace_back("initial_c");
  if (o.overshoot) out.emplace_back("overshoot");
  if (o.iterations) out.emplace_back("iterations");
  if (o.binary_search_steps) out.emplace_back("binary_search_steps");
  if (o.rule) out.emplace_back("rule");
  if (o.mode) out.emplace_back("mode");
  return out;
}

AttackMetricsScope::AttackMetricsScope(std::string name,
                                       std::size_t configured_iterations,
                                       std::size_t image_count)
    : active_(obs::enabled()), name_(std::move(name)) {
  if (!active_) return;
  auto& reg = obs::MetricsRegistry::global();
  start_ = std::chrono::steady_clock::now();
  forward0_ = reg.counter("model/forward_calls").value();
  backward0_ = reg.counter("model/backward_calls").value();
  reg.counter("attack/" + name_ + "/runs").add(1);
  reg.counter("attack/" + name_ + "/images").add(image_count);
  reg.counter("attack/" + name_ + "/iterations").add(configured_iterations);
}

void AttackMetricsScope::record_outcome(const AttackResult& result) {
  if (!active_) return;
  auto& reg = obs::MetricsRegistry::global();
  const std::size_t successes = result.success_count();
  reg.counter("attack/" + name_ + "/successes").add(successes);
  if (successes > 0) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    reg.timer("attack/" + name_ + "/time_to_success")
        .record_ns(static_cast<std::uint64_t>(ns.count()));
  }
}

AttackMetricsScope::~AttackMetricsScope() {
  if (!active_) return;
  auto& reg = obs::MetricsRegistry::global();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start_);
  reg.timer("attack/" + name_ + "/run")
      .record_ns(static_cast<std::uint64_t>(ns.count()));
  reg.counter("attack/" + name_ + "/grad_queries")
      .add(reg.counter("model/backward_calls").value() - backward0_);
  reg.counter("attack/" + name_ + "/forward_passes")
      .add(reg.counter("model/forward_calls").value() - forward0_);
}

AttackResult Attack::run(AttackTarget& target, const Tensor& images,
                         const std::vector<int>& labels) const {
  AttackMetricsScope scope(name(), configured_iterations(),
                           images.rank() ? images.dim(0) : 0);
  AttackResult result = run_impl(target, images, labels);
  scope.record_outcome(result);
  return result;
}

AttackResult Attack::run(nn::Sequential& model, const Tensor& images,
                         const std::vector<int>& labels) const {
  // One scope over all slices: runs/images/iterations/successes count
  // the call once, forward_passes/grad_queries count every slice's passes.
  AttackMetricsScope scope(name(), configured_iterations(),
                           images.rank() ? images.dim(0) : 0);
  std::vector<AttackResult> out = craft_oblivious_slices(
      model, images, labels,
      [this](AttackTarget& target, const Tensor& x,
             const std::vector<int>& y) {
        std::vector<AttackResult> r;
        r.push_back(run_impl(target, x, y));
        return r;
      });
  scope.record_outcome(out[0]);
  return std::move(out[0]);
}

std::string FgsmAttack::name() const { return name_; }

std::string FgsmAttack::tag() const {
  return name_ + "_e" + fmt(cfg_.epsilon) + "_i" +
         std::to_string(cfg_.iterations);
}

AttackResult FgsmAttack::run_impl(AttackTarget& target, const Tensor& images,
                                  const std::vector<int>& labels) const {
  return fgsm_attack(target, images, labels, cfg_);
}

std::string CwL2Attack::name() const { return "cw-l2"; }

std::string CwL2Attack::tag() const {
  return "cw_k" + fmt(cfg_.kappa) + "_i" + std::to_string(cfg_.iterations) +
         "_s" + std::to_string(cfg_.binary_search_steps) + "_c" +
         fmt(cfg_.initial_c) + "_lr" + fmt(cfg_.learning_rate);
}

AttackResult CwL2Attack::run_impl(AttackTarget& target,
                                  const Tensor& images,
                                  const std::vector<int>& labels) const {
  return cw_l2_attack(target, images, labels, cfg_);
}

std::string DeepFoolAttack::name() const { return "deepfool"; }

std::string DeepFoolAttack::tag() const {
  return "deepfool_i" + std::to_string(cfg_.max_iterations) + "_o" +
         fmt(cfg_.overshoot);
}

AttackResult DeepFoolAttack::run_impl(
    AttackTarget& target, const Tensor& images,
    const std::vector<int>& labels) const {
  return deepfool_attack(target, images, labels, cfg_);
}

std::string EadAttack::name() const { return "ead"; }

std::string EadAttack::tag() const {
  return std::string("ead_b") + fmt(cfg_.beta) + "_k" + fmt(cfg_.kappa) +
         "_" + to_string(cfg_.rule) + "_i" + std::to_string(cfg_.iterations) +
         "_s" + std::to_string(cfg_.binary_search_steps) + "_c" +
         fmt(cfg_.initial_c) + "_lr" + fmt(cfg_.learning_rate) +
         (cfg_.mode == HingeMode::Targeted ? "_tgt" : "");
}

AttackResult EadAttack::run_impl(AttackTarget& target, const Tensor& images,
                                 const std::vector<int>& labels) const {
  return ead_attack(target, images, labels, cfg_);
}

AttackRegistry::AttackRegistry() {
  const std::vector<std::string> fgsm_fields = {"epsilon", "iterations"};
  add("fgsm", fgsm_fields, [](const AttackOverrides& o) {
    FgsmConfig cfg;
    if (o.epsilon) cfg.epsilon = *o.epsilon;
    if (o.iterations) cfg.iterations = *o.iterations;
    return std::make_unique<FgsmAttack>(cfg);
  });
  add("ifgsm", fgsm_fields, [](const AttackOverrides& o) {
    FgsmConfig cfg;
    cfg.iterations = 10;
    if (o.epsilon) cfg.epsilon = *o.epsilon;
    if (o.iterations) cfg.iterations = *o.iterations;
    return std::make_unique<FgsmAttack>(cfg, "ifgsm");
  });
  add("cw-l2",
      {"kappa", "iterations", "binary_search_steps", "initial_c",
       "learning_rate"},
      [](const AttackOverrides& o) {
        CwL2Config cfg;
        if (o.kappa) cfg.kappa = *o.kappa;
        if (o.iterations) cfg.iterations = *o.iterations;
        if (o.binary_search_steps)
          cfg.binary_search_steps = *o.binary_search_steps;
        if (o.initial_c) cfg.initial_c = *o.initial_c;
        if (o.learning_rate) cfg.learning_rate = *o.learning_rate;
        return std::make_unique<CwL2Attack>(cfg);
      });
  add("deepfool", {"iterations", "overshoot"},
      [](const AttackOverrides& o) {
        DeepFoolConfig cfg;
        if (o.iterations) cfg.max_iterations = *o.iterations;
        if (o.overshoot) cfg.overshoot = *o.overshoot;
        return std::make_unique<DeepFoolAttack>(cfg);
      });
  add("ead",
      {"kappa", "beta", "iterations", "binary_search_steps", "initial_c",
       "learning_rate", "rule", "mode"},
      [](const AttackOverrides& o) {
        EadConfig cfg;
        if (o.beta) cfg.beta = *o.beta;
        if (o.kappa) cfg.kappa = *o.kappa;
        if (o.iterations) cfg.iterations = *o.iterations;
        if (o.binary_search_steps)
          cfg.binary_search_steps = *o.binary_search_steps;
        if (o.initial_c) cfg.initial_c = *o.initial_c;
        if (o.learning_rate) cfg.learning_rate = *o.learning_rate;
        if (o.rule) cfg.rule = *o.rule;
        if (o.mode) cfg.mode = *o.mode;
        return std::make_unique<EadAttack>(cfg);
      });
}

AttackRegistry& AttackRegistry::instance() {
  // Built-ins are registered in the constructor (not via static
  // self-registration, which a static-library link would strip).
  static AttackRegistry registry;
  return registry;
}

void AttackRegistry::add(const std::string& name, Factory factory) {
  if (!factory) {
    throw std::invalid_argument("AttackRegistry::add: null factory for '" +
                                name + "'");
  }
  Entry entry{std::move(factory), {}, /*strict=*/false};
  if (!factories_.emplace(name, std::move(entry)).second) {
    throw std::invalid_argument("AttackRegistry::add: duplicate attack '" +
                                name + "'");
  }
}

void AttackRegistry::add(const std::string& name,
                         std::vector<std::string> relevant_fields,
                         Factory factory) {
  if (!factory) {
    throw std::invalid_argument("AttackRegistry::add: null factory for '" +
                                name + "'");
  }
  Entry entry{std::move(factory), std::move(relevant_fields),
              /*strict=*/true};
  if (!factories_.emplace(name, std::move(entry)).second) {
    throw std::invalid_argument("AttackRegistry::add: duplicate attack '" +
                                name + "'");
  }
}

std::unique_ptr<Attack> AttackRegistry::create(
    const std::string& name, const AttackOverrides& overrides) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& [key, unused] : factories_) {
      (void)unused;
      known += known.empty() ? key : ", " + key;
    }
    throw std::invalid_argument("AttackRegistry: unknown attack '" + name +
                                "' (registered: " + known + ")");
  }
  const Entry& entry = it->second;
  if (entry.strict) {
    for (const std::string& field : overrides_set_fields(overrides)) {
      if (std::find(entry.relevant.begin(), entry.relevant.end(), field) ==
          entry.relevant.end()) {
        if (obs::enabled()) {
          obs::MetricsRegistry::global()
              .counter("attack/overrides_rejected")
              .add(1);
        }
        throw std::invalid_argument(
            "AttackRegistry: override field '" + field +
            "' is not consumed by attack '" + name +
            "' (it would be silently ignored)");
      }
    }
  }
  return entry.factory(overrides);
}

bool AttackRegistry::contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> AttackRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, unused] : factories_) {
    (void)unused;
    out.push_back(key);
  }
  return out;
}

std::unique_ptr<Attack> make_attack(const std::string& name,
                                    const AttackOverrides& overrides) {
  return AttackRegistry::instance().create(name, overrides);
}

}  // namespace adv::attacks
