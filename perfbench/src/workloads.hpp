// Shared plumbing of the benchmark workloads (craft.cpp, serve_load.cpp):
// command-line options, the report every workload fills, the model scale,
// and obs-registry deltas over a timed window.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/model_zoo.hpp"
#include "magnet/pipeline.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  // private caches, traces
  std::size_t threads = 4;         // the pinned ADV_THREADS
  bool prepare = false;            // serve: only fill the model cache
};

/// Test accuracy every workload's classifiers must reach.
constexpr double kCleanAccuracyFloor = 0.9;

/// A named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;  // traced runs only
  std::vector<std::pair<std::string, double>> self_time_s;
  double unattributed_share = 0.0;
  std::size_t span_count = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Check> checks;
  /// Free-form extra facts (percentile actually used, per-step tallies...)
  /// as preformatted JSON values.
  std::vector<std::pair<std::string, std::string>> notes;

  void check(bool ok, std::string name, std::string detail = {});
  bool correct() const;
  void note(std::string key, double v);
  void note_json(std::string key, std::string json) {
    notes.emplace_back(std::move(key), std::move(json));
  }
};

/// The benchmark's model scale: the fast profile's attack budgets and
/// datasets with the workload's training budget (see README.md), rooted
/// at `model_seed`, caching under `cache_dir`.
adv::core::ScaleConfig bench_scale(std::uint64_t model_seed,
                                   const std::filesystem::path& cache_dir,
                                   std::size_t train_count,
                                   std::size_t ae_epochs);

/// Loads or trains (through `zoo`) the classifier and the default-MagNet
/// auto-encoders of `id`, then builds and calibrates the default MagNet,
/// under the setup spans data.generate, core.train_classifier,
/// core.train_ae and magnet.calibrate.
std::shared_ptr<adv::magnet::MagNetPipeline> build_default_magnet(
    adv::core::ModelZoo& zoo, adv::core::DatasetId id);

double cpu_seconds();
double peak_rss_mb();

/// Timer/counter values at construction; delta_* read the growth since.
class ObsWindow {
 public:
  ObsWindow();
  /// Sum of total time (s) / event count over timers whose key starts
  /// with `prefix` and ends with `suffix`.
  double timer_s(const std::string& prefix, const std::string& suffix = {}) const;
  std::uint64_t timer_count(const std::string& prefix,
                            const std::string& suffix = {}) const;
  std::uint64_t counter(const std::string& prefix,
                        const std::string& suffix = {}) const;

 private:
  std::map<std::string, adv::obs::MetricsRegistry::Sample> start_;
  std::vector<adv::obs::MetricsRegistry::Sample> now_matching(
      const std::string& prefix, const std::string& suffix,
      adv::obs::MetricsRegistry::Sample::Kind kind) const;
  const adv::obs::MetricsRegistry::Sample* at_start(
      const std::string& key,
      adv::obs::MetricsRegistry::Sample::Kind kind) const;
};

/// The tensor-layer and process metrics every workload reports from the
/// obs timers over its timed window.
void add_tensor_layers(Report& r, const ObsWindow& w, double cpu_s,
                       double wall_s);

/// Mean ms per classify of the magnet/stage/* timers over the window.
void add_magnet_stage_layers(Report& r, const ObsWindow& w);

/// Sums the durations of spans named `name` (traced runs).
double span_total_s(const std::string& name);

/// Fills self_time_s / unattributed_share from the tracer over
/// [t0, t1] (now_s() clock); bench.* phase spans attribute nothing.
void add_span_attribution(Report& r, double t0, double t1);

Report run_craft(const Options& opt);
Report run_serve(const Options& opt);

}  // namespace perfbench
