// Shared helpers for the table/figure reproduction binaries.
//
// Each bench binary regenerates one table or figure from the paper using
// the shared ModelZoo artifact cache (build/model_cache by default), so
// the first binary that runs pays for training and attack crafting and
// the rest reuse everything. Curves are printed as aligned text tables and
// also written as CSV under bench_results/ for external plotting.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/magnet_factory.hpp"
#include "core/model_zoo.hpp"

namespace adv::bench {

/// The paper quotes some table rows at specific confidences (e.g. kappa =
/// 15 on MNIST). Under REPRO_SCALE=full we use them exactly; the fast
/// profile snaps to the nearest point of the sweep grid so no extra attack
/// runs are needed.
inline float snap_kappa(const core::ScaleConfig& cfg, core::DatasetId id,
                        float requested) {
  if (cfg.full) return requested;
  const auto& grid = cfg.kappas(id);
  float best = grid.front();
  for (const float k : grid) {
    if (std::abs(k - requested) < std::abs(best - requested)) best = k;
  }
  return best;
}

/// Accuracy (%) of a pipeline against crafted examples.
inline float defended_accuracy_pct(magnet::MagNetPipeline& pipe,
                                   const attacks::AttackResult& attack,
                                   const std::vector<int>& labels,
                                   magnet::DefenseScheme scheme) {
  return 100.0f *
         core::evaluate_defense(pipe, attack.adversarial, labels, scheme)
             .accuracy;
}

/// Builds the kappa-sweep curves {C&W, EAD-L1 beta, EAD-EN beta} used by
/// the paper's Figure 2 / Figure 3 panels.
inline std::vector<core::SweepCurve> headline_curves(
    core::ModelZoo& zoo, core::DatasetId id, magnet::MagNetPipeline& pipe,
    float beta = 0.1f,
    magnet::DefenseScheme scheme = magnet::DefenseScheme::Full) {
  const auto& kappas = zoo.scale().kappas(id);
  const auto& labels = zoo.attack_set(id).labels;
  std::vector<core::SweepCurve> curves(3);
  curves[0].name = "C&W-L2";
  curves[1].name = "EAD-L1 b=" + std::to_string(beta).substr(0, 4);
  curves[2].name = "EAD-EN b=" + std::to_string(beta).substr(0, 4);
  for (const float k : kappas) {
    const auto cw = zoo.cw(id, k);
    const auto el = zoo.ead(id, beta, k, attacks::DecisionRule::L1);
    const auto en = zoo.ead(id, beta, k, attacks::DecisionRule::EN);
    for (auto& c : curves) c.kappas.push_back(k);
    curves[0].accuracy_pct.push_back(
        defended_accuracy_pct(pipe, cw, labels, scheme));
    curves[1].accuracy_pct.push_back(
        defended_accuracy_pct(pipe, el, labels, scheme));
    curves[2].accuracy_pct.push_back(
        defended_accuracy_pct(pipe, en, labels, scheme));
  }
  return curves;
}

/// Defense-scheme ablation curves (paper supplementary figures): accuracy
/// vs kappa for {no defense, detector, reformer, detector & reformer}
/// against one attack family.
template <typename AttackFn>
std::vector<core::SweepCurve> scheme_ablation_curves(
    core::ModelZoo& zoo, core::DatasetId id, magnet::MagNetPipeline& pipe,
    AttackFn&& attack_at) {
  using magnet::DefenseScheme;
  const auto& kappas = zoo.scale().kappas(id);
  const auto& labels = zoo.attack_set(id).labels;
  const DefenseScheme schemes[4] = {
      DefenseScheme::None, DefenseScheme::DetectorOnly,
      DefenseScheme::ReformerOnly, DefenseScheme::Full};
  std::vector<core::SweepCurve> curves(4);
  for (std::size_t s = 0; s < 4; ++s) {
    curves[s].name = magnet::to_string(schemes[s]);
  }
  for (const float k : kappas) {
    const attacks::AttackResult r = attack_at(k);
    for (std::size_t s = 0; s < 4; ++s) {
      curves[s].kappas.push_back(k);
      curves[s].accuracy_pct.push_back(
          defended_accuracy_pct(pipe, r, labels, schemes[s]));
    }
  }
  return curves;
}

inline void emit(const std::string& title, const std::string& csv_name,
                 const std::vector<core::SweepCurve>& curves) {
  core::print_curves(title, curves);
  core::write_curves_csv(std::filesystem::path("bench_results") / csv_name,
                         curves);
}

inline const char* scale_banner(const core::ScaleConfig& cfg) {
  if (cfg.full) return "full (paper-scale counts)";
  if (cfg.smoke) return "smoke (CI-gate counts; determinism only)";
  return "fast (reduced counts; set REPRO_SCALE=full for paper-scale)";
}

}  // namespace adv::bench
