// Table I: comparison of attacks on the DEFAULT MagNet on MNIST and
// CIFAR-10 — attack success rate against the defended pipeline plus mean
// L1/L2 distortion over successful examples. Extra baseline rows (FGSM,
// I-FGSM, DeepFool) cover the attacks §I says MagNet defends.
#include "bench_common.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"

using namespace adv;

namespace {

void row(const char* name, float asr_pct, const attacks::AttackResult& r) {
  std::printf("%-24s  ASR %6.1f%%   L1 %8.3f   L2 %7.3f\n", name, asr_pct,
              r.mean_l1_over_success(), r.mean_l2_over_success());
}

void dataset_block(core::ModelZoo& zoo, core::DatasetId id,
                   float cw_kappa_paper, float ead_kappa_paper) {
  const float cw_kappa = bench::snap_kappa(zoo.scale(), id, cw_kappa_paper);
  const float ead_kappa = bench::snap_kappa(zoo.scale(), id, ead_kappa_paper);
  auto pipe = core::build_magnet(zoo, id, core::MagnetVariant::Default);
  const auto& labels = zoo.attack_set(id).labels;
  const auto scheme = magnet::DefenseScheme::Full;

  std::printf("\n--- %s (default MagNet; C&W kappa=%g, EAD kappa=%g) ---\n",
              core::to_string(id), static_cast<double>(cw_kappa),
              static_cast<double>(ead_kappa));

  // Attacks are selected by name through the AttackRegistry; the zoo
  // supplies scale-matched defaults and caches each run by attack tag.
  attacks::AttackOverrides cw_overrides = zoo.attack_defaults(id);
  cw_overrides.kappa = cw_kappa;
  const auto cw =
      zoo.run_attack(id, *attacks::make_attack("cw-l2", cw_overrides));
  row("C&W (L2)", 100.0f - bench::defended_accuracy_pct(*pipe, cw, labels,
                                                        scheme),
      cw);

  for (const attacks::DecisionRule rule :
       {attacks::DecisionRule::EN, attacks::DecisionRule::L1}) {
    for (const float beta : {1e-3f, 1e-2f, 5e-2f, 1e-1f}) {
      const auto r = zoo.ead(id, beta, ead_kappa, rule);
      char name[64];
      std::snprintf(name, sizeof(name), "EAD (%s rule) b=%g",
                    attacks::to_string(rule), static_cast<double>(beta));
      row(name,
          100.0f - bench::defended_accuracy_pct(*pipe, r, labels, scheme),
          r);
    }
  }

  // Baseline rows beyond the paper's table (attacks MagNet defends),
  // likewise registry-selected by name.
  const struct {
    const char* label;
    const char* name;
    attacks::AttackOverrides overrides;
  } baselines[] = {
      {"FGSM (eps=0.1)", "fgsm", {.epsilon = 0.1f}},
      {"I-FGSM (eps=0.1, 10it)", "ifgsm", {.epsilon = 0.1f}},
      {"DeepFool", "deepfool", {}},
  };
  for (const auto& b : baselines) {
    const auto r =
        zoo.run_attack(id, *attacks::make_attack(b.name, b.overrides));
    row(b.label,
        100.0f - bench::defended_accuracy_pct(*pipe, r, labels, scheme), r);
  }
}

}  // namespace

int main() {
  // Per-attack metrics (iterations, gradient queries, time-to-success) are
  // part of this driver's output; ADV_OBS=0 in the environment pins them off.
  if (!obs::enabled_pinned_by_env()) obs::set_enabled(true);
  core::ModelZoo zoo(core::scale_from_env());
  std::printf("== Table I: attacks vs default MagNet ==\n");
  std::printf("scale: %s\n", bench::scale_banner(zoo.scale()));
  std::printf("(paper: MNIST C&W ASR 10%% vs EAD ~90%%; CIFAR C&W 52%% vs "
              "EAD ~80%%)\n");
  dataset_block(zoo, core::DatasetId::Mnist, 15.0f, 15.0f);
  dataset_block(zoo, core::DatasetId::Cifar, 20.0f, 15.0f);
  if (obs::enabled() &&
      obs::write_json("BENCH_attacks.json", "attack/")) {
    std::printf("wrote BENCH_attacks.json\n");
  }
  // Self-healing counters (fault/cache_quarantined, fault/cache_rebuilt,
  // fault/train_diverged) are recorded unconditionally — emit them even
  // when the per-attack instrumentation is pinned off.
  if (obs::write_json("BENCH_fault.json", "fault/")) {
    std::printf("wrote BENCH_fault.json\n");
  }
}
