// perfbench: the repository benchmark's workload binary.
//
//   perfbench --workload craft|serve_cifar_mixed --seed N --seconds S
//             --trace 0|1 --work-dir DIR --result FILE [--prepare 1]
//
// With --prepare 1 the serve workload only fills its model cache.
//
// Normally launched by perfbench/run.py, which builds this binary, pins
// ADV_THREADS/ADV_OBS and prints the benchmark's result line. This binary writes its full report
// (end-to-end metrics, per-layer metrics when traced, correctness checks,
// failure accounting, notes) as JSON to --result, and the recorded spans
// to <work-dir>/trace-<workload>-seed<N>.json when traced. Exit status 0
// means the report was written (its "correct" field may still be false);
// anything else means the run itself broke.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "benchlib.hpp"
#include "core/magnet_factory.hpp"
#include "tensor/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

void Report::check(bool ok, std::string name, std::string detail) {
  if (!ok) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s %s\n", name.c_str(),
                 detail.c_str());
  }
  checks.push_back({std::move(name), ok, std::move(detail)});
}

bool Report::correct() const {
  for (const auto& c : checks) {
    if (!c.ok) return false;
  }
  return !checks.empty();
}

void Report::note(std::string key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : -1.0);
  notes.emplace_back(std::move(key), buf);
}

adv::core::ScaleConfig bench_scale(std::uint64_t model_seed,
                                   const std::filesystem::path& cache_dir,
                                   std::size_t train_count,
                                   std::size_t ae_epochs) {
  adv::core::ScaleConfig cfg = adv::core::scale_from_env();  // fast profile
  cfg.train_count = train_count;
  cfg.ae_epochs = ae_epochs;
  cfg.seed = model_seed;
  cfg.cache_dir = cache_dir;
  return cfg;
}

std::shared_ptr<adv::magnet::MagNetPipeline> build_default_magnet(
    adv::core::ModelZoo& zoo, adv::core::DatasetId id) {
  { Span s("data.generate"); zoo.dataset(id); }
  { Span s("core.train_classifier"); zoo.classifier(id); }
  {
    Span s("core.train_ae");
    const std::size_t f = zoo.scale().default_filters(id);
    const auto loss = adv::magnet::ReconLoss::Mse;
    if (id == adv::core::DatasetId::Mnist) {
      zoo.autoencoder(id, adv::magnet::AeArch::MnistDeep, f, loss);
      zoo.autoencoder(id, adv::magnet::AeArch::MnistShallow, f, loss);
    } else {
      zoo.autoencoder(id, adv::magnet::AeArch::Cifar, f, loss);
    }
  }
  // The auto-encoders are memoized by now, so this is calibration (plus
  // the int8 bank build_magnet always prepares).
  Span s("magnet.calibrate");
  return adv::core::build_magnet(zoo, id, adv::core::MagnetVariant::Default);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- obs deltas ----------------------------------------------------------

namespace {

using Sample = adv::obs::MetricsRegistry::Sample;

std::string kind_key(Sample::Kind k, const std::string& key) {
  return std::to_string(static_cast<int>(k)) + ":" + key;
}

bool matches(const std::string& key, const std::string& prefix,
             const std::string& suffix) {
  return key.starts_with(prefix) && key.ends_with(suffix);
}

}  // namespace

ObsWindow::ObsWindow() {
  for (auto& s : adv::obs::MetricsRegistry::global().snapshot()) {
    start_.emplace(kind_key(s.kind, s.key), s);
  }
}

std::vector<Sample> ObsWindow::now_matching(const std::string& prefix,
                                            const std::string& suffix,
                                            Sample::Kind kind) const {
  std::vector<Sample> out;
  for (auto& s : adv::obs::MetricsRegistry::global().snapshot(prefix)) {
    if (s.kind == kind && matches(s.key, prefix, suffix)) out.push_back(s);
  }
  return out;
}

const Sample* ObsWindow::at_start(const std::string& key,
                                  Sample::Kind kind) const {
  const auto it = start_.find(kind_key(kind, key));
  return it == start_.end() ? nullptr : &it->second;
}

double ObsWindow::timer_s(const std::string& prefix,
                          const std::string& suffix) const {
  std::uint64_t ns = 0;
  for (const auto& s : now_matching(prefix, suffix, Sample::Kind::Timer)) {
    const Sample* s0 = at_start(s.key, Sample::Kind::Timer);
    ns += s.total_ns - (s0 ? s0->total_ns : 0);
  }
  return 1e-9 * static_cast<double>(ns);
}

std::uint64_t ObsWindow::timer_count(const std::string& prefix,
                                     const std::string& suffix) const {
  std::uint64_t n = 0;
  for (const auto& s : now_matching(prefix, suffix, Sample::Kind::Timer)) {
    const Sample* s0 = at_start(s.key, Sample::Kind::Timer);
    n += s.count - (s0 ? s0->count : 0);
  }
  return n;
}

std::uint64_t ObsWindow::counter(const std::string& prefix,
                                 const std::string& suffix) const {
  std::uint64_t n = 0;
  for (const auto& s : now_matching(prefix, suffix, Sample::Kind::Counter)) {
    const Sample* s0 = at_start(s.key, Sample::Kind::Counter);
    n += s.value - (s0 ? s0->value : 0);
  }
  return n;
}

void add_tensor_layers(Report& r, const ObsWindow& w, double cpu_s,
                       double wall_s) {
  // Conv timers are conv/<shape>/{direct,im2col}[_bwd]; gemm timers are
  // gemm/<MxKxN> with a gemm/<MxKxN>/flops counter beside each.
  const double conv_fwd =
      w.timer_s("conv/", "/direct") + w.timer_s("conv/", "/im2col");
  const double conv_bwd =
      w.timer_s("conv/", "/direct_bwd") + w.timer_s("conv/", "/im2col_bwd");
  const double gemm = w.timer_s("gemm/");
  const double flops = static_cast<double>(w.counter("gemm/", "/flops"));
  r.layers.push_back({"tensor.conv_fwd_s", conv_fwd, "s"});
  r.layers.push_back({"tensor.conv_bwd_s", conv_bwd, "s"});
  r.layers.push_back({"tensor.gemm_s", gemm, "s"});
  r.layers.push_back(
      {"tensor.gemm_gflops", gemm > 0.0 ? flops / gemm * 1e-9 : 0.0, "GFLOP/s"});
  r.layers.push_back(
      {"tensor.pool_caller_wait_s", w.timer_s("pool/caller_wait"), "s"});
  r.layers.push_back(
      {"tensor.pool_queue_wait_s", w.timer_s("pool/queue_wait"), "s"});
  r.layers.push_back({"tensor.pool_tasks",
                      static_cast<double>(w.counter("pool/tasks_dispatched")),
                      "count"});
  r.layers.push_back(
      {"tensor.workspace_bytes_reused",
       static_cast<double>(w.counter("workspace/bytes_reused")), "bytes"});
  r.layers.push_back({"process.cpu_wall_ratio",
                      wall_s > 0.0 ? cpu_s / wall_s : 0.0, "ratio"});
}

void add_magnet_stage_layers(Report& r, const ObsWindow& w) {
  for (const char* stage : {"detectors", "reformer", "classifier"}) {
    const std::string key = std::string("magnet/stage/") + stage;
    const std::uint64_t n = w.timer_count(key);
    r.layers.push_back({std::string("magnet.") + stage + "_ms",
                        n ? 1e3 * w.timer_s(key) / static_cast<double>(n) : 0.0,
                        "ms"});
  }
}

double span_total_s(const std::string& name) {
  double total = 0.0;
  for (const auto& s : Tracer::global().spans()) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

void add_span_attribution(Report& r, double t0, double t1) {
  const auto spans = Tracer::global().spans();
  r.span_count = spans.size();
  r.self_time_s = self_time_by_layer(spans);
  // bench.* spans only mark the load generator's phases; they explain no
  // time, so their self time (generator idle) stays unattributed.
  std::vector<std::pair<double, double>> all;
  all.reserve(spans.size());
  for (const auto& s : spans) {
    if (!s.name.starts_with("bench.")) all.emplace_back(s.start_s, s.end_s);
  }
  const double wall = t1 - t0;
  r.unattributed_share =
      wall > 0.0 ? 1.0 - union_measure(std::move(all), t0, t1) / wall : 0.0;
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Report;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  // Non-finite values cannot appear in JSON; they only arise from failed
  // requests, which the failure counts already report.
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 1e300);
  return buf;
}

std::string metrics_json(const std::vector<perfbench::Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

std::string report_json(const Options& opt, const Report& r) {
  std::ostringstream o;
  o << "{\n  \"workload\": \"" << opt.workload << "\",\n  \"seed\": "
    << opt.seed << ",\n  \"trace\": " << (opt.trace ? 1 : 0)
    << ",\n  \"threads\": " << opt.threads
    << ",\n  \"correct\": " << (r.correct() ? "true" : "false")
    << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": "
    << r.failed << ",\n  \"metrics\": " << metrics_json(r.e2e)
    << ",\n  \"layers\": " << metrics_json(r.layers)
    << ",\n  \"self_time_s\": {";
  for (std::size_t i = 0; i < r.self_time_s.size(); ++i) {
    o << (i ? ", \"" : "\"") << r.self_time_s[i].first
      << "\": " << num(r.self_time_s[i].second);
  }
  o << "},\n  \"unattributed_share\": " << num(r.unattributed_share)
    << ",\n  \"spans\": " << r.span_count << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const auto& c = r.checks[i];
    o << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << json_escape(c.name)
      << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
      << json_escape(c.detail) << "\"}";
  }
  o << "\n  ],\n  \"notes\": {";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    o << (i ? ",\n    \"" : "\n    \"") << json_escape(r.notes[i].first)
      << "\": " << r.notes[i].second;
  }
  o << "\n  }\n}\n";
  return o.str();
}

Options parse(int argc, char** argv, std::filesystem::path& result) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--work-dir") o.work_dir = v;
    else if (a == "--result") result = v;
    else if (a == "--prepare") o.prepare = v == "1";
    else throw std::invalid_argument("unknown option " + a);
  }
  if (o.workload.empty() || o.work_dir.empty() || result.empty()) {
    throw std::invalid_argument("--workload, --work-dir and --result are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::now_s();  // the benchmark epoch: setup_s counts from here
  try {
    std::filesystem::path result;
    Options opt = parse(argc, argv, result);
    opt.threads = adv::ThreadPool::global().thread_count();
    perfbench::Tracer::global().set_enabled(opt.trace);
    std::filesystem::create_directories(opt.work_dir);

    Report r;
    if (opt.workload == "craft") {
      r = perfbench::run_craft(opt);
    } else if (opt.workload == "serve_cifar_mixed") {
      r = perfbench::run_serve(opt);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }
    if (opt.trace) {
      std::ofstream(opt.work_dir / ("trace-" + opt.workload + "-seed" +
                                    std::to_string(opt.seed) + ".json"))
          << perfbench::spans_json(perfbench::Tracer::global().spans());
    }
    std::ofstream(result) << report_json(opt, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] error: %s\n", e.what());
    return 2;
  }
}
