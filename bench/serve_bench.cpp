// serve_bench: closed-loop load study of the adv::serve daemon.
//
// Builds the default MNIST MagNet through the ModelZoo cache, starts a
// ServeDaemon on a private unix socket, and drives it with closed-loop
// clients at several in-flight depths (each client submits one-image
// requests back to back — the paper's serving case). Per depth it reports
// request latency (p50/p99), throughput, the mean rows per forward batch
// the micro-batcher achieved, and the process CPU/wall ratio. The load
// daemon runs the derived number of batch executors (batcher.hpp),
// recorded as serve/bench/executors.
//
// Before any load runs, an identity gate replays a fixed request set
// through a daemon (max_batch_rows = 8, concurrent submitters, so
// coalescing actually happens) with one batch executor and again with
// three, and compares every response against the pipeline run serially
// one-request-at-a-time: the gate passes only on BITWISE identical
// predictions, rejections, thresholds and detector scores (see
// batcher.hpp for why this must hold).
//
// Emits BENCH_serve.json (every metric under serve/, including the
// daemon's own counters and timers). The binary holds its own gates: it
// prints a FAIL: line and exits 1 when the identity gate fails or the
// overload phase breaks its invariants (see run_overload).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fault/failpoint.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace adv;

namespace {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double percentile_ms(std::vector<double>& latencies_ms, double pct) {
  if (latencies_ms.empty()) return 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double rank = pct / 100.0 * static_cast<double>(latencies_ms.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = idx == 0 ? 0 : idx - 1;
  if (idx >= latencies_ms.size()) idx = latencies_ms.size() - 1;
  return latencies_ms[idx];
}

bool outcomes_identical(const magnet::DefenseOutcome& a,
                        const magnet::DefenseOutcome& b) {
  if (a.predicted != b.predicted || a.rejected != b.rejected ||
      a.readings.size() != b.readings.size()) {
    return false;
  }
  for (std::size_t d = 0; d < a.readings.size(); ++d) {
    const auto& ra = a.readings[d];
    const auto& rb = b.readings[d];
    if (ra.name != rb.name || ra.scores.size() != rb.scores.size()) {
      return false;
    }
    if (std::memcmp(&ra.threshold, &rb.threshold, sizeof(float)) != 0 ||
        std::memcmp(ra.scores.data(), rb.scores.data(),
                    ra.scores.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Replays `count` single-image requests through the daemon from 4
/// concurrent submitters and compares each response bitwise against the
/// precomputed serial baseline.
bool identity_gate(const std::filesystem::path& socket,
                   const Tensor& images,
                   const std::vector<magnet::DefenseOutcome>& baseline) {
  const std::size_t count = baseline.size();
  std::vector<char> same(count, 0);
  std::vector<std::thread> threads;
  const std::size_t kThreads = 4;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::ServeClient client(socket);
      for (std::size_t i = t; i < count; i += kThreads) {
        const auto resp = client.classify(images.slice_rows(i, i + 1),
                                          magnet::DefenseScheme::Full);
        same[i] = resp.ok && outcomes_identical(resp.outcome, baseline[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  return std::all_of(same.begin(), same.end(), [](char c) { return c != 0; });
}

struct DepthStats {
  double p50_ms = 0.0, p99_ms = 0.0;
  double throughput_rps = 0.0;
  double mean_batch_rows = 0.0;
  double cpu_wall_ratio = 0.0;
};

DepthStats run_depth(const std::filesystem::path& socket,
                     const Tensor& images, std::size_t depth,
                     std::size_t requests_per_client) {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t batches0 = reg.counter("serve/batches").value();
  const std::uint64_t rows0 = reg.counter("serve/batch_rows").value();

  std::vector<std::vector<double>> lat(depth);
  const double cpu0 = cpu_seconds();
  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(depth);
  for (std::size_t c = 0; c < depth; ++c) {
    clients.emplace_back([&, c] {
      serve::ServeClient client(socket);
      lat[c].reserve(requests_per_client);
      const std::size_t n = images.dim(0);
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        const std::size_t row = (c * requests_per_client + i) % n;
        const auto t0 = std::chrono::steady_clock::now();
        const auto resp = client.classify(images.slice_rows(row, row + 1),
                                          magnet::DefenseScheme::Full);
        const auto t1 = std::chrono::steady_clock::now();
        if (!resp.ok) continue;  // fault-free run; counted via ok/err metrics
        lat[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (auto& th : clients) th.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();
  const double cpu = cpu_seconds() - cpu0;

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());

  DepthStats s;
  s.p50_ms = percentile_ms(all, 50.0);
  s.p99_ms = percentile_ms(all, 99.0);
  s.throughput_rps = wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0;
  const std::uint64_t batches = reg.counter("serve/batches").value() - batches0;
  const std::uint64_t rows = reg.counter("serve/batch_rows").value() - rows0;
  s.mean_batch_rows =
      batches > 0 ? static_cast<double>(rows) / static_cast<double>(batches)
                  : 0.0;
  s.cpu_wall_ratio = wall > 0.0 ? cpu / wall : 0.0;

  const std::string base = "serve/bench/depth" + std::to_string(depth) + "/";
  reg.gauge(base + "p50_ms").set(s.p50_ms);
  reg.gauge(base + "p99_ms").set(s.p99_ms);
  reg.gauge(base + "throughput_rps").set(s.throughput_rps);
  reg.gauge(base + "mean_batch_rows").set(s.mean_batch_rows);
  reg.gauge(base + "cpu_wall_ratio").set(s.cpu_wall_ratio);
  return s;
}

/// Overload scenario (DESIGN.md §15): a deliberately tiny daemon (2-row
/// batches, 8-row admission queue, watchdog armed) under a
/// `serve.batch_forward:delay` failpoint and 16 closed-loop clients —
/// half carrying a deadline, a quarter retrying sheds with deterministic
/// backoff. Emits serve/bench/overload/* gauges. Returns false, after a
/// FAIL: line per broken gate, unless shed and deadline_expired are both
/// NONZERO (a zero means the overload never bit) and the batcher's
/// accounting invariant (requests == ok + errors + shed +
/// deadline_expired) held.
bool run_overload(const std::filesystem::path& socket, const Tensor& images,
                  std::size_t requests_per_client) {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t req0 = reg.counter("serve/requests").value();
  const std::uint64_t ok0 = reg.counter("serve/responses_ok").value();
  const std::uint64_t err0 = reg.counter("serve/responses_error").value();
  const std::uint64_t shed0 = reg.counter("serve/shed").value();
  const std::uint64_t ddl0 = reg.counter("serve/deadline_expired").value();
  const std::uint64_t retry0 = reg.counter("serve/client_retries").value();

  const std::size_t kClients = 16;
  std::vector<std::vector<double>> lat(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::ClientConfig ccfg;
      ccfg.recv_timeout = std::chrono::milliseconds(10000);
      if (c % 4 == 0) {
        // Retrying clients: a shed is an invitation to back off and try
        // again, on a schedule seeded per client.
        ccfg.retry.max_attempts = 3;
        ccfg.retry.base_backoff = std::chrono::milliseconds(5);
        ccfg.retry.max_backoff = std::chrono::milliseconds(50);
        ccfg.retry.jitter_seed = c;
      }
      // Half the clients spend a deadline budget; the rest wait it out.
      const std::uint32_t deadline_ms = (c % 2 == 0) ? 40 : 0;
      serve::ServeClient client(socket, ccfg);
      const std::size_t n = images.dim(0);
      for (std::size_t i = 0; i < requests_per_client; ++i) {
        const std::size_t row = (c * requests_per_client + i) % n;
        const auto t0 = std::chrono::steady_clock::now();
        const auto resp = client.classify(images.slice_rows(row, row + 1),
                                          magnet::DefenseScheme::Full,
                                          deadline_ms);
        const auto t1 = std::chrono::steady_clock::now();
        if (!resp.ok) continue;  // sheds/expiries show up in the counters
        lat[c].push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (auto& th : clients) th.join();

  const double requests =
      static_cast<double>(reg.counter("serve/requests").value() - req0);
  const double ok =
      static_cast<double>(reg.counter("serve/responses_ok").value() - ok0);
  const double errors =
      static_cast<double>(reg.counter("serve/responses_error").value() - err0);
  const double shed =
      static_cast<double>(reg.counter("serve/shed").value() - shed0);
  const double expired =
      static_cast<double>(reg.counter("serve/deadline_expired").value() - ddl0);
  const double retries =
      static_cast<double>(reg.counter("serve/client_retries").value() - retry0);
  const bool accounted = requests == ok + errors + shed + expired;

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  const double p99 = percentile_ms(all, 99.0);

  reg.gauge("serve/bench/overload/requests").set(requests);
  reg.gauge("serve/bench/overload/ok").set(ok);
  reg.gauge("serve/bench/overload/errors").set(errors);
  reg.gauge("serve/bench/overload/shed").set(shed);
  reg.gauge("serve/bench/overload/deadline_expired").set(expired);
  reg.gauge("serve/bench/overload/client_retries").set(retries);
  reg.gauge("serve/bench/overload/p99_ms").set(p99);
  reg.gauge("serve/bench/overload/accounted").set(accounted ? 1.0 : 0.0);

  std::printf(
      "overload: %.0f requests -> %.0f ok, %.0f shed, %.0f expired, %.0f "
      "errors (%.0f client retries), served p99 %.1f ms, accounting %s\n",
      requests, ok, shed, expired, errors, retries, p99,
      accounted ? "OK" : "BROKEN");
  bool pass = true;
  if (!accounted) {
    std::fprintf(stderr, "FAIL: serve/bench/overload/accounted != 1\n");
    pass = false;
  }
  if (shed == 0) {
    std::fprintf(stderr, "FAIL: overload phase shed nothing\n");
    pass = false;
  }
  if (expired == 0) {
    std::fprintf(stderr, "FAIL: overload phase expired no deadline\n");
    pass = false;
  }
  return pass;
}

}  // namespace

int main() {
  if (!obs::enabled_pinned_by_env()) obs::set_enabled(true);
  core::ModelZoo zoo(core::scale_from_env());
  std::printf("== serve_bench: defended-inference serving study ==\n");
  std::printf("scale: %s\n", bench::scale_banner(zoo.scale()));

  // Pays for training once (through the zoo cache); detectors arrive
  // calibrated.
  auto pipe = core::build_magnet(zoo, core::DatasetId::Mnist,
                                 core::MagnetVariant::Default);
  const Tensor& images = zoo.attack_set(core::DatasetId::Mnist).images;

  // Serial identity baseline: one classify per request, no daemon.
  const std::size_t kIdentityRequests = std::min<std::size_t>(
      24, images.dim(0));
  std::vector<magnet::DefenseOutcome> baseline;
  baseline.reserve(kIdentityRequests);
  for (std::size_t i = 0; i < kIdentityRequests; ++i) {
    baseline.push_back(pipe->classify(images.slice_rows(i, i + 1),
                                      magnet::DefenseScheme::Full));
  }

  const serve::MicroBatcher::PipelineFactory factory =
      [pipe]() -> std::shared_ptr<const magnet::MagNetPipeline> {
    return pipe;
  };
  serve::ServeConfig cfg;
  cfg.socket_path = std::filesystem::temp_directory_path() /
                    ("adv_serve_bench_" + std::to_string(::getpid()) +
                     ".sock");
  cfg.batch.max_batch_rows = 8;
  cfg.batch.flush_deadline = std::chrono::microseconds(200);

  auto& reg = obs::MetricsRegistry::global();
  bool identical = true;
  for (const std::size_t executors : {std::size_t{1}, std::size_t{3}}) {
    serve::ServeConfig icfg = cfg;
    icfg.batch.executors = executors;
    serve::ServeDaemon identity_daemon(factory, icfg);
    identity_daemon.start();
    const bool same = identity_gate(icfg.socket_path, images, baseline);
    identity_daemon.stop();
    std::printf(
        "batched-vs-serial bitwise identity (%zu requests, %zu "
        "executors): %s\n",
        kIdentityRequests, executors, same ? "OK" : "FAILED");
    identical = identical && same;
  }
  reg.gauge("serve/bench/identity").set(identical ? 1.0 : 0.0);
  if (!identical) std::fprintf(stderr, "FAIL: serve/bench/identity != 1\n");

  serve::ServeDaemon daemon(factory, cfg);
  daemon.start();
  const std::size_t executors = daemon.batcher().config().executors;
  reg.gauge("serve/bench/executors").set(static_cast<double>(executors));
  std::printf("load phases: %zu batch executors\n", executors);

  const std::size_t per_client =
      zoo.scale().smoke ? 30 : (zoo.scale().full ? 600 : 150);
  const std::size_t depths[] = {1, 2, 4, 8};
  std::printf("%6s %10s %10s %14s %12s %10s\n", "depth", "p50 ms", "p99 ms",
              "throughput/s", "batch rows", "cpu/wall");
  for (const std::size_t d : depths) {
    const DepthStats s = run_depth(cfg.socket_path, images, d, per_client);
    std::printf("%6zu %10.3f %10.3f %14.1f %12.2f %10.2f\n", d, s.p50_ms,
                s.p99_ms, s.throughput_rps, s.mean_batch_rows,
                s.cpu_wall_ratio);
  }
  daemon.stop();

  // Overload study on a fresh, deliberately tiny daemon: one executor
  // running 2-row batches behind an 8-row admission queue, watchdog
  // armed, and every forward pass slowed by a latency failpoint so
  // saturation is guaranteed. One executor keeps the queue wait (8 rows
  // at 2 rows per 25 ms, about 100 ms) well past the 40 ms deadlines; at
  // three executors it is about 33 ms, and expiries become rare.
  serve::ServeConfig ocfg;
  ocfg.socket_path = std::filesystem::temp_directory_path() /
                     ("adv_serve_bench_ovl_" + std::to_string(::getpid()) +
                      ".sock");
  ocfg.batch.max_batch_rows = 2;
  ocfg.batch.flush_deadline = std::chrono::microseconds(200);
  ocfg.batch.max_queue_rows = 8;
  ocfg.batch.watchdog_timeout = std::chrono::milliseconds(5000);
  ocfg.batch.executors = 1;
  serve::ServeDaemon overload_daemon(factory, ocfg);
  overload_daemon.start();
  fault::arm("serve.batch_forward:delay=25");
  const std::size_t overload_per_client = zoo.scale().smoke ? 8 : 20;
  const bool overload_ok =
      run_overload(ocfg.socket_path, images, overload_per_client);
  fault::reset();
  overload_daemon.stop();

  if (obs::write_json("BENCH_serve.json", "serve/")) {
    std::printf("wrote BENCH_serve.json\n");
  }
  return identical && overload_ok ? 0 : 1;
}
