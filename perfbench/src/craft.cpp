// craft: the paper's oblivious-attack reproduction from a cold start.
//
// Setup (timed as setup_s, once — it IS the training run a researcher pays
// per seed): generate the MNIST and CIFAR splits, train each classifier
// and its default-MagNet auto-encoders in a fresh private cache, and
// calibrate the default MagNet. The timed body then runs, per dataset,
// oblivious EAD (beta = 0.01, EN rule) and C&W-L2 at Table I's kappa on
// the 60-image attack set through Attack::run (no artifact cache), and
// evaluate_defense under all four schemes: one whole pass, whatever
// --seconds says, because a partial pass would not compare.
//
// Every crafted result is hashed into the report (notes.crafted), so that
// run.py can check a traced run's tensors against the untraced run of the
// same seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "attacks/attack.hpp"
#include "bench/bench_common.hpp"
#include "benchlib.hpp"
#include "core/evaluation.hpp"
#include "core/magnet_factory.hpp"
#include "core/model_zoo.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using adv::Tensor;
using adv::core::DatasetId;

/// Forwarding AttackTarget that times and counts what the attack asks of
/// the model. Also the source of craft's step latency: the gap between
/// consecutive Eval forwards is one optimizer iteration.
class TimedTarget final : public adv::attacks::AttackTarget {
 public:
  explicit TimedTarget(adv::attacks::AttackTarget& inner) : inner_(inner) {}

  adv::attacks::ThreatModel threat_model() const override {
    return inner_.threat_model();
  }
  std::string tag_suffix() const override { return inner_.tag_suffix(); }

  Tensor logits(const Tensor& batch, adv::nn::Mode mode) override {
    const double t0 = now_s();
    if (mode == adv::nn::Mode::Eval) {
      if (last_eval_s_ > 0.0) step_ms.push_back(1e3 * (t0 - last_eval_s_));
      last_eval_s_ = t0;
    }
    Span span("nn.forward");
    Tensor out = inner_.logits(batch, mode);
    forward_s += now_s() - t0;
    logit_rows += batch.dim(0);
    return out;
  }

  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override {
    Span span("nn.backward");
    const double t0 = now_s();
    Tensor out = inner_.input_grad(batch, upstream);
    backward_s += now_s() - t0;
    grad_rows += batch.dim(0);
    return out;
  }

  /// Ends one attack run and hands over its step latencies; the next Eval
  /// forward starts a new series.
  std::vector<double> end_run() {
    last_eval_s_ = 0.0;
    return std::exchange(step_ms, {});
  }

  std::vector<double> step_ms;
  double forward_s = 0.0, backward_s = 0.0;
  std::uint64_t logit_rows = 0, grad_rows = 0;

 private:
  adv::attacks::AttackTarget& inner_;
  double last_eval_s_ = 0.0;
};

struct AttackSpec {
  const char* name;       // registry name
  const char* span;       // span / metric stem
  bool ead;
};
// Training budget: with fewer images, some seeds' MNIST classifier fell
// under the accuracy floor (see README.md).
constexpr std::size_t kTrainCount = 1500;
constexpr std::size_t kAeEpochs = 5;

constexpr AttackSpec kAttacks[] = {{"ead", "attacks.ead", true},
                                   {"cw-l2", "attacks.cw", false}};

std::unique_ptr<adv::attacks::Attack> make(const adv::core::ModelZoo& zoo,
                                           DatasetId id,
                                           const AttackSpec& spec) {
  adv::attacks::AttackOverrides o = zoo.attack_defaults(id);
  // Table I's kappa (MNIST 15 for both attacks; CIFAR C&W 20, EAD 15)
  // snapped to the fast profile's grid, as table1_attack_comparison does.
  const float paper = id == DatasetId::Cifar && !spec.ead ? 20.0f : 15.0f;
  o.kappa = adv::bench::snap_kappa(zoo.scale(), id, paper);
  if (spec.ead) {
    o.beta = 0.01f;
    o.rule = adv::attacks::DecisionRule::EN;
  }
  return adv::attacks::make_attack(spec.name, o);
}

/// FNV-1a over the bytes of everything an attack reports: the images, the
/// success flags and the distances.
std::string result_hash(const adv::attacks::AttackResult& res) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  };
  mix(res.adversarial.data(), res.adversarial.numel() * sizeof(float));
  for (const bool ok : res.success) mix(&ok, 1);
  mix(res.l1.data(), res.l1.size() * sizeof(float));
  mix(res.l2.data(), res.l2.size() * sizeof(float));
  mix(res.linf.data(), res.linf.size() * sizeof(float));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The per-result checks: box constraint, success flags re-verified by
/// an argmax on the classifier, reported L1/L2 recomputed from the images,
/// failed rows left natural.
void check_result(Report& r, const std::string& label,
                  const adv::attacks::AttackResult& res, const Tensor& natural,
                  const std::vector<int>& labels,
                  adv::nn::Sequential& classifier) {
  const Tensor& adv_img = res.adversarial;
  const std::size_t n = natural.dim(0);
  const std::size_t row = natural.numel() / n;
  bool in_box = adv_img.numel() == natural.numel();
  for (std::size_t i = 0; in_box && i < adv_img.numel(); ++i) {
    in_box = adv_img[i] >= 0.0f && adv_img[i] <= 1.0f;
  }
  r.check(in_box, label + ": adversarial images in [0,1]");

  const std::vector<int> pred =
      adv::nn::predict_labels(classifier, adv_img);
  std::size_t bad_flags = 0, bad_dist = 0, moved_failures = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (res.success[i] && pred[i] == labels[i]) ++bad_flags;
    const float* a = adv_img.data() + i * row;
    const float* x = natural.data() + i * row;
    double l1 = 0.0, l2 = 0.0;
    for (std::size_t j = 0; j < row; ++j) {
      const double d = static_cast<double>(a[j]) - x[j];
      l1 += std::fabs(d);
      l2 += d * d;
    }
    l2 = std::sqrt(l2);
    const auto off = [](double want, float got) {
      return std::fabs(want - got) > 1e-5 * std::max(1.0, std::fabs(want));
    };
    if (off(l1, res.l1[i]) || off(l2, res.l2[i])) ++bad_dist;
    if (!res.success[i] && std::memcmp(a, x, row * sizeof(float)) != 0) {
      ++moved_failures;
    }
  }
  r.check(bad_flags == 0, label + ": success flags re-verified by argmax",
          std::to_string(bad_flags) + " flagged rows still classified correctly");
  r.check(bad_dist == 0, label + ": reported L1/L2 match the images",
          std::to_string(bad_dist) + " rows differ");
  r.check(moved_failures == 0, label + ": failed rows hold the natural image",
          std::to_string(moved_failures) + " rows moved");
  const double ratio = static_cast<double>(res.success_count()) /
                       static_cast<double>(n);
  r.check(ratio >= 0.5, label + ": attack is not degenerate",
          "undefended success ratio " + std::to_string(ratio));
}

}  // namespace

Report run_craft(const Options& opt) {
  Report r;
  const auto cache = opt.work_dir / ("craft-cache-seed" + std::to_string(opt.seed));
  std::filesystem::remove_all(cache);
  adv::core::ModelZoo zoo(bench_scale(opt.seed, cache, kTrainCount, kAeEpochs));
  const DatasetId kSets[] = {DatasetId::Mnist, DatasetId::Cifar};

  // --- setup: data, training, calibration (fresh private cache) ---------
  std::map<DatasetId, std::shared_ptr<adv::magnet::MagNetPipeline>> pipes;
  for (const DatasetId id : kSets) {
    pipes[id] = build_default_magnet(zoo, id);
    Span s("core.attack_set");
    zoo.attack_set(id);
  }
  const double setup_s = now_s();

  // --- timed body: one pass ----------------------------------------------
  const ObsWindow window;
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  std::map<std::string, double> seconds_by, images_by;
  std::map<std::string, adv::attacks::AttackResult> crafted;  // per dataset/attack
  std::vector<double> step_ms;  // optimizer step latencies, all runs
  double fwd_s = 0.0, bwd_s = 0.0, successes = 0.0, attacked = 0.0;
  std::uint64_t logit_rows = 0, grad_rows = 0;
  for (const DatasetId id : kSets) {
    const auto& set = zoo.attack_set(id);
    auto classifier = zoo.classifier(id);
    adv::attacks::ObliviousTarget base(*classifier);
    TimedTarget target(base);
    for (const AttackSpec& spec : kAttacks) {
      const auto attack = make(zoo, id, spec);
      const double a0 = now_s();
      adv::attacks::AttackResult res;
      {
        Span s(spec.span);
        res = attack->run(target, set.images, set.labels);
      }
      const double secs = now_s() - a0;
      const std::vector<double> steps = target.end_run();
      step_ms.insert(step_ms.end(), steps.begin(), steps.end());
      seconds_by[spec.span] += secs;
      images_by[spec.span] += static_cast<double>(set.images.dim(0));
      attacked += static_cast<double>(set.images.dim(0));
      successes += static_cast<double>(res.success_count());
      const std::string key =
          std::string(adv::core::to_string(id)) + "." + spec.name;
      for (const auto scheme :
           {adv::magnet::DefenseScheme::None,
            adv::magnet::DefenseScheme::DetectorOnly,
            adv::magnet::DefenseScheme::ReformerOnly,
            adv::magnet::DefenseScheme::Full}) {
        // evaluate_defense is one MagNetPipeline::classify plus a count.
        Span s("magnet.classify");
        const auto ev = adv::core::evaluate_defense(*pipes[id], res.adversarial,
                                                    set.labels, scheme);
        r.note(key + ".asr_" + adv::magnet::to_string(scheme), ev.asr);
      }
      crafted.emplace(key, std::move(res));
    }
    fwd_s += target.forward_s;
    bwd_s += target.backward_s;
    logit_rows += target.logit_rows;
    grad_rows += target.grad_rows;
  }
  const double t1 = now_s();
  const double cpu1 = cpu_seconds();

  // --- end-to-end metrics --------------------------------------------------
  double attack_s = 0.0;
  for (const auto& [k, v] : seconds_by) attack_s += v;
  r.attempted = static_cast<std::uint64_t>(attacked);
  r.e2e.push_back({"setup_s", setup_s, "s"});
  r.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  r.e2e.push_back({"throughput_per_s", attacked / attack_s, "1/s"});
  const auto p50 = supported_percentile(step_ms, 50.0);
  const auto p90 = supported_percentile(step_ms, 90.0);
  r.check(p50 && p90, "step latency percentiles have sample support",
          std::to_string(step_ms.size()) + " steps");
  r.e2e.push_back({"p50_ms", p50.value_or(0.0), "ms"});
  r.e2e.push_back({"p90_ms", p90.value_or(0.0), "ms"});
  r.note("latency_samples", static_cast<double>(step_ms.size()));
  r.note("craft_images_per_s", attacked / attack_s);
  r.note("ead_images_per_s", images_by["attacks.ead"] / seconds_by["attacks.ead"]);
  r.note("cw_images_per_s", images_by["attacks.cw"] / seconds_by["attacks.cw"]);
  {
    std::string hashes = "{";
    for (const auto& [key, res] : crafted) {
      hashes += (hashes.size() > 1 ? ", \"" : "\"") + key + "\": \"" +
                result_hash(res) + "\"";
    }
    r.note_json("crafted", hashes + "}");
  }

  // --- per-layer metrics (traced), read before the checks run models -------
  if (opt.trace) {
    const auto spans = Tracer::global().spans();
    const auto self = self_times(spans);
    double ead_self = 0.0, cw_self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "attacks.ead") ead_self += self[i];
      if (spans[i].name == "attacks.cw") cw_self += self[i];
    }
    r.layers.push_back({"attacks.ead_self_s", ead_self, "s"});
    r.layers.push_back({"attacks.cw_self_s", cw_self, "s"});
    r.layers.push_back({"attacks.logit_rows", static_cast<double>(logit_rows), "count"});
    r.layers.push_back({"attacks.grad_rows", static_cast<double>(grad_rows), "count"});
    r.layers.push_back({"attacks.success_ratio", successes / attacked, "ratio"});
    // The serve layer is idle here.
    for (const char* name : {"serve.batches", "serve.sent", "serve.ok", "serve.failed"}) {
      r.layers.push_back({name, 0.0, "count"});
    }
    r.layers.push_back({"serve.mean_batch_rows", 0.0, "rows"});
    r.layers.push_back({"nn.forward_s", fwd_s, "s"});
    r.layers.push_back({"nn.backward_s", bwd_s, "s"});
    r.layers.push_back({"core.train_classifier_s", span_total_s("core.train_classifier"), "s"});
    r.layers.push_back({"core.train_ae_s", span_total_s("core.train_ae"), "s"});
    r.layers.push_back({"magnet.calibrate_s", span_total_s("magnet.calibrate"), "s"});
    r.layers.push_back({"data.generate_s", span_total_s("data.generate"), "s"});
    add_tensor_layers(r, window, cpu1 - cpu0, t1 - t0);
    r.layers.push_back({"magnet.classify_s", span_total_s("magnet.classify"), "s"});
    add_magnet_stage_layers(r, window);
    add_span_attribution(r, 0.0, t1);
  }

  // --- correctness -----------------------------------------------------------
  for (const DatasetId id : kSets) {
    const double acc = zoo.clean_test_accuracy(id);
    r.check(acc >= kCleanAccuracyFloor,
            std::string(adv::core::to_string(id)) + ": clean accuracy floor",
            "test accuracy " + std::to_string(acc));
    const auto& set = zoo.attack_set(id);
    auto classifier = zoo.classifier(id);
    for (const AttackSpec& spec : kAttacks) {
      const std::string key =
          std::string(adv::core::to_string(id)) + "." + spec.name;
      check_result(r, key, crafted.at(key), set.images, set.labels, *classifier);
    }
  }
  std::filesystem::remove_all(cache);
  return r;
}

}  // namespace perfbench
