// Float -> int8 attack-transfer study (DESIGN.md §17): adversarial
// examples are crafted with full-precision gradients against the FLOAT
// defended pipeline (the only gradients an attacker can take — the int8
// clones have no backward), then replayed through the float pipeline and
// through its int8 twin, an ordinary MagNetPipeline built from
// quant::quantize clones of every model. For every attack x defense-scheme
// cell the bench reports the attack success rate under float and int8
// execution and their delta, plus the per-detector mean |score drift| the
// quantized models induce — the quantity that says whether the float-
// calibrated thresholds are still meaningful on the int8 twin.
//
// Emits BENCH_quant_transfer.json (gauges under qtransfer/):
//   qtransfer/mnist/<attack>/<scheme>/asr_float_pct | asr_int8_pct |
//     asr_delta_pct            (delta = int8 - float)
//   qtransfer/mnist/<attack>/drift/<detector>        (mean |s_f - s_i|)
//   qtransfer/mnist/clean_top1_{float,int8,drift}_pct (undefended
//     classifier on the test split)
//
// Exits non-zero unless the JSON is written and two gates hold: the EAD
// rows cover every scheme on the int8 twin (the paper's headline attack
// must be measured against the quantized deployment), and the clean top-1
// drift stays within 0.5%.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"
#include "quant/quantize.hpp"
#include "tensor/gemm_int8.hpp"

using namespace adv;

namespace {

constexpr magnet::DefenseScheme kSchemes[] = {
    magnet::DefenseScheme::None, magnet::DefenseScheme::DetectorOnly,
    magnet::DefenseScheme::ReformerOnly, magnet::DefenseScheme::Full};

constexpr double kMaxTop1DriftPct = 0.5;

const char* scheme_key(magnet::DefenseScheme s) {
  switch (s) {
    case magnet::DefenseScheme::None: return "none";
    case magnet::DefenseScheme::DetectorOnly: return "detector";
    case magnet::DefenseScheme::ReformerOnly: return "reformer";
    case magnet::DefenseScheme::Full: return "full";
  }
  return "?";
}

/// The int8 twin of a calibrated float pipeline: every model cloned by
/// quant::quantize with activation scales from `calib`, detector
/// thresholds copied from the float calibration (the twin never
/// recalibrates, so threshold drift stays measurable). Models shared
/// between stages — the reformer AE doubling as a detector AE, the
/// classifier inside the JSD detectors — are cloned once and shared again.
std::shared_ptr<magnet::MagNetPipeline> quantized_twin(
    magnet::MagNetPipeline& pipe, const Tensor& calib) {
  std::map<const nn::Sequential*, std::shared_ptr<nn::Sequential>> memo;
  const auto clone = [&](const nn::Sequential& src) {
    auto& q = memo[&src];
    if (!q) q = std::make_shared<nn::Sequential>(quant::quantize(src, calib));
    return q;
  };
  auto twin =
      std::make_shared<magnet::MagNetPipeline>(clone(pipe.classifier()));
  for (std::size_t i = 0; i < pipe.detector_count(); ++i) {
    const magnet::Detector& d = pipe.detector(i);
    std::shared_ptr<magnet::Detector> q;
    if (const auto* rd =
            dynamic_cast<const magnet::ReconstructionDetector*>(&d)) {
      q = std::make_shared<magnet::ReconstructionDetector>(
          clone(*rd->autoencoder()), rd->p());
    } else if (const auto* jd = dynamic_cast<const magnet::JsdDetector*>(&d)) {
      q = std::make_shared<magnet::JsdDetector>(clone(*jd->autoencoder()),
                                                clone(*jd->classifier()),
                                                jd->temperature());
    } else {
      throw std::runtime_error("quantized_twin: unsupported detector " +
                               d.name());
    }
    q->set_threshold(d.threshold());
    twin->add_detector(std::move(q));
  }
  if (const magnet::Reformer* r = pipe.reformer()) {
    twin->set_reformer(
        std::make_shared<magnet::Reformer>(clone(*r->autoencoder())));
  }
  return twin;
}

/// Accuracy (%) of `pipe` on `images` under one scheme; ASR is its
/// complement. Rounded once as 100 * correct / n (100 * correct is exact
/// in float), from the row count behind clean_accuracy's fraction —
/// scaling the already-rounded fraction by 100 would round twice.
float acc_pct(const magnet::MagNetPipeline& pipe, const Tensor& images,
              const std::vector<int>& labels, magnet::DefenseScheme scheme) {
  const float n = static_cast<float>(labels.size());
  const float correct =
      std::round(pipe.clean_accuracy(images, labels, scheme) * n);
  return 100.0f * correct / n;
}

void transfer_block(core::ModelZoo& zoo, core::DatasetId id, float kappa) {
  auto& reg = obs::MetricsRegistry::global();
  auto pipe = core::build_magnet(zoo, id, core::MagnetVariant::Default);
  // Activation scales calibrate on a bounded slice of the validation set —
  // max-abs saturates quickly and the sweep is a handful of forward
  // passes, not a training run.
  const Tensor& val = zoo.dataset(id).val.images;
  const auto qpipe = quantized_twin(
      *pipe, val.slice_rows(0, std::min<std::size_t>(val.dim(0), 256)));
  const auto& labels = zoo.attack_set(id).labels;
  const std::string ds = core::to_string(id);

  struct Crafted {
    const char* name;
    attacks::AttackResult result;
  };
  // Float-crafted (oblivious, undefended classifier — the zoo cache these
  // other tables already paid for): the paper's L1 attack, the L2
  // baseline, and the fast-gradient family.
  const Crafted crafted[] = {
      {"ead", zoo.ead(id, 1e-2f, kappa, attacks::DecisionRule::L1)},
      {"cw-l2", zoo.cw(id, kappa)},
      {"ifgsm", zoo.fgsm(id, 0.1f, 10)},
  };

  std::printf("%-7s %-9s  ASR%% float  ASR%% int8   delta\n", "attack",
              "scheme");
  for (const Crafted& c : crafted) {
    const std::string base = "qtransfer/" + ds + "/" + c.name + "/";
    for (const magnet::DefenseScheme s : kSchemes) {
      const float asr_f =
          100.0f - acc_pct(*pipe, c.result.adversarial, labels, s);
      const float asr_i =
          100.0f - acc_pct(*qpipe, c.result.adversarial, labels, s);
      const std::string cell = base + scheme_key(s) + "/";
      reg.gauge(cell + "asr_float_pct").set(asr_f);
      reg.gauge(cell + "asr_int8_pct").set(asr_i);
      reg.gauge(cell + "asr_delta_pct").set(asr_i - asr_f);
      std::printf("%-7s %-9s  %9.1f  %9.1f  %+6.1f\n", c.name, scheme_key(s),
                  asr_f, asr_i, asr_i - asr_f);
    }
    // Per-detector score drift on the crafted batch: how far each int8
    // detector reading moves from the float one whose threshold it keeps.
    const magnet::DefenseOutcome of = pipe->classify(
        c.result.adversarial, magnet::DefenseScheme::DetectorOnly);
    const magnet::DefenseOutcome oi = qpipe->classify(
        c.result.adversarial, magnet::DefenseScheme::DetectorOnly);
    for (std::size_t d = 0; d < of.readings.size(); ++d) {
      double drift = 0.0;
      for (std::size_t i = 0; i < of.readings[d].scores.size(); ++i) {
        drift += std::abs(static_cast<double>(of.readings[d].scores[i]) -
                          static_cast<double>(oi.readings[d].scores[i]));
      }
      drift /= static_cast<double>(of.readings[d].scores.size());
      reg.gauge(base + "drift/" + of.readings[d].name).set(drift);
      std::printf("%-7s drift %-10s  mean |ds| = %.3g  (threshold %.3g)\n",
                  c.name, of.readings[d].name.c_str(), drift,
                  static_cast<double>(of.readings[d].threshold));
    }
  }

  // Clean top-1 drift of the undefended classifier on the test split —
  // the quantization-accuracy contract gated at <= 0.5%.
  const auto& test = zoo.dataset(id).test;
  const float top1_f =
      acc_pct(*pipe, test.images, test.labels, magnet::DefenseScheme::None);
  const float top1_i =
      acc_pct(*qpipe, test.images, test.labels, magnet::DefenseScheme::None);
  reg.gauge("qtransfer/" + ds + "/clean_top1_float_pct").set(top1_f);
  reg.gauge("qtransfer/" + ds + "/clean_top1_int8_pct").set(top1_i);
  reg.gauge("qtransfer/" + ds + "/clean_top1_drift_pct")
      .set(std::abs(top1_f - top1_i));
  std::printf("clean top-1 (%zu test rows): float %.2f%%  int8 %.2f%%  "
              "drift %.2f%%\n",
              static_cast<std::size_t>(test.labels.size()), top1_f, top1_i,
              std::abs(top1_f - top1_i));
}

/// Checks the two gates against the gauges BENCH_quant_transfer.json
/// carries: one "ok:" line on stdout or "FAIL:" line on stderr per check.
bool gates_hold() {
  std::map<std::string, double> gauges;
  for (const auto& s : obs::MetricsRegistry::global().snapshot("qtransfer/")) {
    gauges[s.key] = s.gauge_value;
  }
  bool ok = true;
  for (const magnet::DefenseScheme s : kSchemes) {
    const std::string key =
        std::string("qtransfer/mnist/ead/") + scheme_key(s) + "/asr_int8_pct";
    if (gauges.count(key)) {
      std::printf("ok: EAD int8 ASR measured under scheme '%s'\n",
                  scheme_key(s));
    } else {
      std::fprintf(stderr, "FAIL: EAD int8 ASR missing for scheme '%s'\n",
                   scheme_key(s));
      ok = false;
    }
  }
  const auto it = gauges.find("qtransfer/mnist/clean_top1_drift_pct");
  const double drift = it != gauges.end() ? it->second : NAN;
  if (drift <= kMaxTop1DriftPct) {
    std::printf("ok: int8 clean top-1 drift %.6g%% (<= %.1f%%)\n", drift,
                kMaxTop1DriftPct);
  } else {
    std::fprintf(stderr, "FAIL: int8 clean top-1 drift %.6g%% > %.1f%%\n",
                 drift, kMaxTop1DriftPct);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!obs::enabled_pinned_by_env()) obs::set_enabled(true);
  // Stays 0 under --warm-only, where the body (and its gates) never run.
  int gate_rc = 0;
  core::ShardedBench sb;
  sb.name = "table_quant_transfer";
  sb.warm = [](core::ModelZoo& zoo) {
    bench::warm_variants(zoo, core::DatasetId::Mnist,
                         {core::MagnetVariant::Default});
  };
  sb.body = [&gate_rc](core::ModelZoo& zoo) {
    std::printf("== Float -> int8 attack transfer (default MNIST MagNet) ==\n");
    std::printf("scale: %s\nint8 kernel: %s\n",
                bench::scale_banner(zoo.scale()), gemm_int8_kernel_name());
    const float kappa =
        bench::snap_kappa(zoo.scale(), core::DatasetId::Mnist, 0.0f);
    transfer_block(zoo, core::DatasetId::Mnist, kappa);
    const bool wrote =
        obs::write_json("BENCH_quant_transfer.json", "qtransfer/");
    if (wrote) std::printf("wrote BENCH_quant_transfer.json\n");
    gate_rc = gates_hold() && wrote ? 0 : 1;
  };
  const int rc = core::shard_main(argc, argv, sb);
  return rc != 0 ? rc : gate_rc;
}
