// Shared driver for the supplementary EAD ablation figures (Figs. 6-11):
// for one dataset and one MagNet variant, sweep beta x decision rule and
// print the defense-scheme ablation curves for each combination. Each
// figure binary builds a zoo and makes one run_ead_ablation_figure call.
#pragma once

#include "bench_common.hpp"

namespace adv::bench {

inline void run_ead_ablation_figure(core::ModelZoo& zoo, const char* figure,
                                    core::DatasetId id,
                                    core::MagnetVariant variant) {
  std::printf("== Figure %s: EAD ablation on %s, MagNet %s ==\n", figure,
              core::to_string(id), core::to_string(variant));
  std::printf("scale: %s\n", scale_banner(zoo.scale()));
  auto pipe = core::build_magnet(zoo, id, variant);
  for (const auto rule :
       {attacks::DecisionRule::L1, attacks::DecisionRule::EN}) {
    for (const float beta : {1e-3f, 1e-2f, 5e-2f, 1e-1f}) {
      const auto curves = scheme_ablation_curves(
          zoo, id, *pipe,
          [&](float k) { return zoo.ead(id, beta, k, rule); });
      char title[160], csv[96];
      std::snprintf(title, sizeof(title),
                    "Fig %s — EAD %s rule, beta=%g (accuracy %%)", figure,
                    attacks::to_string(rule), static_cast<double>(beta));
      std::snprintf(csv, sizeof(csv), "fig%s_%s_b%g.csv", figure,
                    attacks::to_string(rule), static_cast<double>(beta));
      emit(title, csv, curves);
    }
  }
}

}  // namespace adv::bench
