// serve_cifar_mixed: MagNet as a deployed defense, driven open-loop
// through the unix-socket daemon.
//
// Setup (setup_s = median of kSetupRepeats cold starts): a fresh
// ModelZoo over a cache filled before any timing, a ServeDaemon with the
// default ServeConfig batching whose lazy factory loads the models and
// calibrates the default MagNet, timed through the first OK response.
//
// Timed phases, all over the same four client connections (at most four
// requests in flight): a nominal phase of seeded Poisson arrivals at a
// fixed rate (p50_ms / p90_ms, latency counted from when each request was
// due, so generator lateness is never hidden); a saturation phase with
// four requests always in flight (throughput_per_s); then a bisection
// over a fixed rate ladder for max_rps, which is reported but not gated.
// A rung passes when at least two of its three independent sub-steps
// pass: near capacity one scheduling stall leaves a backlog that takes
// seconds to drain, and a single step would judge the stall, not the
// daemon.
//
// Correctness: every OK response is compared bitwise with the first
// response its connection got for the same pool item, and after the
// phases every such first response with a serial in-process classify of
// the same rows and scheme.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "benchlib.hpp"
#include "core/magnet_factory.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using adv::Tensor;
using adv::magnet::DefenseOutcome;
using adv::magnet::DefenseScheme;

constexpr std::uint64_t kModelSeed = 2018;  // the repo's default seed
constexpr auto kDataset = adv::core::DatasetId::Cifar;
// The fast profile's training budget. The cache is filled once per
// checkout, outside any measured process.
constexpr std::size_t kTrainCount = 2500;
constexpr std::size_t kAeEpochs = 30;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kWindows = 3;   // nominal-phase percentile windows
constexpr std::size_t kSubSteps = 3;  // independent sub-steps per rung
constexpr double kStepPct = 50.0;     // a sub-step is judged at its p50 latency
constexpr double kSpinS = 200e-6;     // generator spins this long before due
// Shares of --seconds; the ladder gets the rest.
constexpr double kNominalShare = 0.4;
constexpr double kSaturateShare = 0.2;
// Length of the saturation phase's schedule, as a rate: about ten times
// the capacity, so the phase ends by its deadline, not by running dry.
constexpr double kSaturateScheduleRps = 5000.0;
constexpr std::size_t kSetupRepeats = 3;  // cold starts; setup_s is their median

// Load, sized from the capacity on the 4-vCPU development VM, which ranged
// from about 250 to 560 req/s from day to day (see README.md).
constexpr double kNominalRps = 40.0;
constexpr double kLadderLo = 200.0;  // 31 rungs, 5% apart: 200 .. 864 req/s
constexpr double kLadderRatio = 1.05;
constexpr std::size_t kLadderRungs = 31;
constexpr double kLimitMs = 40.0;       // on a sub-step's p50 latency
constexpr double kGrowthTolMs = 100.0;  // generator lateness growth per sub-step

// Request mix (synthetic; see README.md): a quarter of the requests are
// 8-row, and half of each size asks for DetectorOnly instead of Full.
constexpr double kBatch8Share = 0.25;
constexpr double kDetectorOnlyShare = 0.5;

struct PoolItem {
  Tensor rows;
  DefenseScheme scheme = DefenseScheme::Full;
  std::vector<int> labels;
};

/// Seeded request pool: rows drawn from the clean test split. The request
/// classes are exact: round(kBatch8Share * kPoolSize) items are 8-row, and
/// within each size round(kDetectorOnlyShare * count) are DetectorOnly,
/// so every seed costs the same mix; only their order is shuffled.
std::vector<PoolItem> make_pool(std::uint64_t seed,
                                const adv::data::Dataset& test) {
  std::uint64_t state = seed ^ 0x5EEDF00Dull;
  const auto share = [](double s, std::size_t of) {
    return static_cast<std::size_t>(std::lround(s * static_cast<double>(of)));
  };
  std::vector<std::pair<std::size_t, DefenseScheme>> classes;
  const std::size_t eight = share(kBatch8Share, kPoolSize);
  for (const auto& [rows, count] : {std::pair{std::size_t{8}, eight},
                                   std::pair{std::size_t{1}, kPoolSize - eight}}) {
    const std::size_t det = share(kDetectorOnlyShare, count);
    for (std::size_t i = 0; i < count; ++i) {
      classes.emplace_back(rows, i < det ? DefenseScheme::DetectorOnly
                                         : DefenseScheme::Full);
    }
  }
  for (std::size_t i = kPoolSize - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(classes[i], classes[splitmix64(state) % (i + 1)]);
  }
  const std::size_t n = test.images.dim(0);
  const std::size_t row = test.images.numel() / n;
  std::vector<PoolItem> pool(kPoolSize);
  for (std::size_t p = 0; p < kPoolSize; ++p) {
    PoolItem& item = pool[p];
    const std::size_t rows = classes[p].first;
    item.scheme = classes[p].second;
    std::vector<float> data;
    data.reserve(rows * row);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t i = splitmix64(state) % n;
      const float* src = test.images.data() + i * row;
      data.insert(data.end(), src, src + row);
      item.labels.push_back(test.labels[i]);
    }
    item.rows = Tensor::from_data(
        adv::Shape({rows, test.images.dim(1), test.images.dim(2),
                    test.images.dim(3)}),
        std::move(data));
  }
  return pool;
}

bool outcomes_identical(const DefenseOutcome& a, const DefenseOutcome& b) {
  if (a.predicted != b.predicted || a.rejected != b.rejected ||
      a.readings.size() != b.readings.size()) {
    return false;
  }
  for (std::size_t d = 0; d < a.readings.size(); ++d) {
    const auto& ra = a.readings[d];
    const auto& rb = b.readings[d];
    if (ra.name != rb.name || ra.scores.size() != rb.scores.size() ||
        std::memcmp(&ra.threshold, &rb.threshold, sizeof(float)) != 0 ||
        std::memcmp(ra.scores.data(), rb.scores.data(),
                    ra.scores.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

enum class Outcome : std::uint8_t { Ok, Error, Shed, Expired, Timeout, Io };
constexpr const char* kOutcomeNames[] = {"ok",      "error",   "shed",
                                         "expired", "timeout", "io"};

struct Record {
  std::size_t item = 0;  // into the request pool
  double due_s = 0.0, send_s = 0.0, done_s = 0.0;
  Outcome outcome = Outcome::Io;
};

/// The four generator connections plus what they have seen.
struct Generator {
  std::vector<adv::serve::ServeClient> clients;
  /// Per connection, per pool item: the first OK outcome it received.
  std::vector<std::vector<std::optional<DefenseOutcome>>> first;
  std::atomic<std::size_t> mismatches{0};
  std::uint64_t next_request = 1;
};

/// Replays `sched` open-loop from `phase_start`: request i is due at
/// phase_start + sched[i].due_s and goes out on the next free connection.
/// No request goes out after phase_start + stop_s; the records hold only
/// the requests sent.
std::vector<Record> run_phase(Generator& gen, const std::vector<PoolItem>& pool,
                              const std::vector<Arrival>& sched,
                              std::uint64_t parent_span,
                              double stop_s = std::numeric_limits<double>::infinity()) {
  std::vector<Record> recs(sched.size());
  std::atomic<std::size_t> next{0};
  const std::uint64_t req_base = gen.next_request;
  gen.next_request += sched.size();
  const double phase_start = now_s() + 0.002;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < gen.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      // Wake at the due time, not up to the default 50 us timer slack later.
      ::prctl(PR_SET_TIMERSLACK, 1UL);
      auto& client = gen.clients[c];
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sched.size() || now_s() >= phase_start + stop_s) return;
        const PoolItem& item = pool[sched[i].item];
        Record& rec = recs[i];
        rec.item = sched[i].item;
        rec.due_s = phase_start + sched[i].due_s;
        // Sleep to just short of the due time, then spin the rest: a
        // sleeping vCPU wakes tens of microseconds late, and that lateness
        // would count as daemon latency.
        const double wait = rec.due_s - now_s() - kSpinS;
        if (wait > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        while (now_s() < rec.due_s) {
        }
        Span span("serve.request", req_base + i, parent_span);
        rec.send_s = now_s();
        std::optional<adv::serve::ClassifyResponse> resp;
        try {
          resp = client.classify(item.rows, item.scheme);
          rec.outcome = resp->ok ? Outcome::Ok
                        : resp->status == adv::serve::Status::Overloaded
                            ? Outcome::Shed
                        : resp->status == adv::serve::Status::DeadlineExceeded
                            ? Outcome::Expired
                            : Outcome::Error;
        } catch (const adv::serve::TimeoutError&) {
          rec.outcome = Outcome::Timeout;
        } catch (const std::exception&) {
          rec.outcome = Outcome::Io;
        }
        rec.done_s = now_s();
        if (rec.outcome == Outcome::Ok) {
          auto& slot = gen.first[c][sched[i].item];
          if (!slot) {
            slot = std::move(resp->outcome);
          } else if (!outcomes_identical(*slot, resp->outcome)) {
            gen.mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::erase_if(recs, [](const Record& rec) { return rec.send_s == 0.0; });
  return recs;
}

StepSamples samples_of(const std::vector<Record>& recs) {
  StepSamples s;
  s.latency_ms.reserve(recs.size());
  s.lateness_ms.reserve(recs.size());
  for (const auto& r : recs) {
    const bool ok = r.outcome == Outcome::Ok;
    s.latency_ms.push_back(
        ok ? 1e3 * (r.done_s - r.due_s)
           : std::numeric_limits<double>::infinity());
    s.lateness_ms.push_back(1e3 * (r.send_s - r.due_s));
    if (!ok) ++s.failed;
  }
  return s;
}

/// Failure accounting of one phase or rate step, as a JSON object.
std::string tally_json(const std::vector<Record>& recs, double rate) {
  std::size_t by[6] = {};
  for (const auto& r : recs) ++by[static_cast<int>(r.outcome)];
  std::string out = "{\"rate\": " + std::to_string(rate) +
                    ", \"sent\": " + std::to_string(recs.size());
  for (int k = 0; k < 6; ++k) {
    out += std::string(", \"") + kOutcomeNames[k] + "\": " + std::to_string(by[k]);
  }
  return out;
}

/// How one phase's answered requests formed batches, per scheme, as a JSON
/// object (traced runs only: it reads obs timers). The reformer runs once
/// per Full batch, so magnet/stage/reformer splits serve/batches by scheme.
std::string batching_json(const ObsWindow& w, const std::vector<Record>& recs,
                          const std::vector<PoolItem>& pool) {
  std::size_t rows[2] = {}, one[2] = {}, eight[2] = {};  // Full, DetectorOnly
  for (const auto& rec : recs) {
    if (rec.outcome != Outcome::Ok) continue;
    const PoolItem& item = pool[rec.item];
    const int k = item.scheme == DefenseScheme::Full ? 0 : 1;
    rows[k] += item.rows.dim(0);
    ++(item.rows.dim(0) == 8 ? eight : one)[k];
  }
  const std::uint64_t full = w.timer_count("magnet/stage/reformer");
  const std::uint64_t batches[2] = {full, w.counter("serve/batches") - full};
  std::string out = "{";
  for (int k = 0; k < 2; ++k) {
    out += std::string(k ? ", " : "") + (k ? "\"detector_only\"" : "\"full\"") +
           ": {\"batches\": " + std::to_string(batches[k]) +
           ", \"rows\": " + std::to_string(rows[k]) +
           ", \"requests_1row\": " + std::to_string(one[k]) +
           ", \"requests_8row\": " + std::to_string(eight[k]) + "}";
  }
  return out + "}";
}

}  // namespace

Report run_serve(const Options& opt) {
  Report r;
  const auto id = kDataset;
  const auto cfg = bench_scale(kModelSeed, opt.work_dir / "serve-cache",
                               kTrainCount, kAeEpochs);

  // The model cache is filled before any timing: run.py runs this binary
  // with --prepare 1 at the training pool size once per checkout. Loading
  // the models here too, before the daemon starts, keeps peak_rss_mb
  // steady: without it, runs read 163 or 248 MB; with it, about 213 MB.
  std::vector<PoolItem> pool;
  {
    adv::core::ModelZoo warm(cfg);
    const bool tracing = Tracer::global().enabled();
    Tracer::global().set_enabled(false);
    build_default_magnet(warm, id);
    Tracer::global().set_enabled(tracing);
    if (opt.prepare) return r;
    pool = make_pool(opt.seed, warm.dataset(id).test);
  }

  // --- setup: cold daemon starts through the first OK response ----------
  std::vector<double> setups;
  std::unique_ptr<adv::serve::ServeDaemon> daemon;
  std::filesystem::path socket;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon) daemon->stop();
    daemon.reset();
    const double t0 = now_s();
    auto zoo = std::make_shared<adv::core::ModelZoo>(cfg);
    adv::serve::ServeConfig sc;
    socket = opt.work_dir / ("serve-" + std::to_string(::getpid()) + "-" +
                             std::to_string(rep) + ".sock");
    sc.socket_path = socket;
    daemon = std::make_unique<adv::serve::ServeDaemon>(
        [zoo, id] { return build_default_magnet(*zoo, id); }, sc);
    daemon->start();
    adv::serve::ServeClient probe(socket);
    const auto resp = probe.classify(pool[0].rows, pool[0].scheme);
    setups.push_back(now_s() - t0);
    r.check(resp.ok, "daemon answers after setup", resp.error);
    if (!resp.ok) return r;
  }
  std::vector<double> sorted_setups = setups;
  std::sort(sorted_setups.begin(), sorted_setups.end());
  const double setup_s = sorted_setups[sorted_setups.size() / 2];

  Generator gen;
  adv::serve::ClientConfig ccfg;
  ccfg.recv_timeout = std::chrono::milliseconds(10000);
  ccfg.send_timeout = std::chrono::milliseconds(10000);
  for (std::size_t c = 0; c < kConnections; ++c) {
    gen.clients.emplace_back(socket, ccfg);
  }
  gen.first.assign(kConnections,
                   std::vector<std::optional<DefenseOutcome>>(pool.size()));

  // Warm-up (untimed): arenas, connections, branch predictors.
  run_phase(gen, pool, poisson_schedule(opt.seed, 0, kNominalRps, 0.5, pool.size()), 0);

  // --- timed phases ----------------------------------------------------------
  const ObsWindow window;
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  std::vector<Record> all;
  std::string steps_json = "[";

  const double nominal_s = opt.seconds * kNominalShare;
  std::vector<Record> nominal;
  std::optional<ObsWindow> phase_obs;  // traced: batching per phase
  if (opt.trace) phase_obs.emplace();
  {
    Span phase("bench.nominal");
    nominal = run_phase(
        gen, pool,
        poisson_schedule(opt.seed, 1, kNominalRps, nominal_s, pool.size()),
        phase.id());
  }
  all.insert(all.end(), nominal.begin(), nominal.end());
  const StepSamples nom = samples_of(nominal);
  {
    std::string pj = tally_json(nominal, kNominalRps);
    if (phase_obs) pj += ", \"batching\": " + batching_json(*phase_obs, nominal, pool);
    for (const double pct : {50.0, 90.0, 95.0, 98.0, 99.0, 99.5}) {
      const auto v = supported_percentile(nom.latency_ms, pct);
      pj += ", \"p" + std::to_string(pct).substr(0, pct < 99.5 ? 2 : 4) +
            "_ms\": " + (v ? std::to_string(*v) : std::string("null"));
    }
    r.note_json("nominal", pj + "}");
  }

  // Saturation: every request is due at the phase start, so the four
  // connections send back to back and four requests are always in flight.
  // Its rate is the median of per-window completion rates, so one stall
  // moves one window, not the result.
  const double sat_s = opt.seconds * kSaturateShare;
  std::vector<Arrival> sat_sched = poisson_schedule(
      opt.seed, 2, kSaturateScheduleRps, sat_s, pool.size());
  for (Arrival& a : sat_sched) a.due_s = 0.0;
  std::vector<Record> saturated;
  if (opt.trace) phase_obs.emplace();
  {
    Span phase("bench.saturate");
    saturated = run_phase(gen, pool, sat_sched, phase.id(), sat_s);
  }
  all.insert(all.end(), saturated.begin(), saturated.end());
  double saturated_rps = 0.0;
  {
    std::vector<double> done;
    for (const auto& rec : saturated) {
      if (rec.outcome == Outcome::Ok) done.push_back(rec.done_s);
    }
    const double start = saturated.empty() ? 0.0 : saturated.front().due_s;
    saturated_rps = windowed_rate(done, start, start + sat_s, kWindows);
    std::string sj = tally_json(saturated, saturated_rps);
    if (phase_obs) sj += ", \"batching\": " + batching_json(*phase_obs, saturated, pool);
    r.note_json("saturated", sj + "}");
    r.check(saturated.size() < sat_sched.size(),
            "saturation phase lasted its full time",
            std::to_string(saturated.size()) + " requests sent");
  }

  const auto ladder =
      geometric_ladder(kLadderLo, kLadderRatio, kLadderRungs);
  const auto max_probes = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(kLadderRungs) + 1.0)));
  const double sub_s = opt.seconds * (1.0 - kNominalShare) /
                       static_cast<double>(max_probes * kSubSteps);
  const auto best = bisect_ladder(ladder.size(), [&](std::size_t k) {
    std::size_t passed = 0;
    for (std::size_t sub = 0; sub < kSubSteps; ++sub) {
      std::vector<Record> step;
      if (opt.trace) phase_obs.emplace();
      {
        Span phase("bench.step");
        step = run_phase(gen, pool,
                         poisson_schedule(opt.seed, 100 + kSubSteps * k + sub,
                                          ladder[k], sub_s, pool.size()),
                         phase.id());
      }
      all.insert(all.end(), step.begin(), step.end());
      const StepVerdict v = judge_step(samples_of(step), kStepPct,
                                       kLimitMs, kGrowthTolMs);
      passed += v.pass;
      steps_json += (steps_json.size() > 1 ? ", " : "") +
                    tally_json(step, ladder[k]) +
                    ", \"pass\": " + (v.pass ? "true" : "false") +
                    ", \"latency_ms\": " +
                    std::to_string(v.latency_ms.value_or(-1.0)) +
                    ", \"lateness_growth_ms\": " +
                    std::to_string(v.lateness_growth_ms) + ", \"reason\": \"" +
                    v.reason + "\"" +
                    (phase_obs ? ", \"batching\": " + batching_json(*phase_obs, step, pool)
                               : std::string()) +
                    "}";
    }
    return 2 * passed > kSubSteps;
  });
  const double t1 = now_s();
  const double cpu1 = cpu_seconds();
  r.note_json("ladder_steps", steps_json + "]");

  // Below the ladder, max_rps is the rung under its bottom, never zero.
  r.note("max_rps", best ? ladder[*best] : ladder.front() / kLadderRatio);
  r.note("max_rps.rung", best ? static_cast<double>(*best) : -1.0);

  // --- end-to-end metrics ---------------------------------------------------
  const auto p50 = windowed_percentile(nom.latency_ms, 50.0, kWindows);
  const auto p90 = windowed_percentile(nom.latency_ms, 90.0, kWindows);
  r.check(p50 && p90, "nominal percentiles have sample support",
          std::to_string(nom.latency_ms.size()) + " requests in " +
              std::to_string(kWindows) + " windows");
  r.e2e.push_back({"setup_s", setup_s, "s"});
  r.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  r.e2e.push_back({"throughput_per_s", saturated_rps, "1/s"});
  r.e2e.push_back({"p50_ms", p50.value_or(0.0), "ms"});
  r.e2e.push_back({"p90_ms", p90.value_or(0.0), "ms"});
  r.note("latency_samples", static_cast<double>(nom.latency_ms.size()));
  r.note("latency_windows", static_cast<double>(kWindows));
  for (std::size_t i = 0; i < setups.size(); ++i) {
    r.note("setup_s.repeat" + std::to_string(i), setups[i]);
  }
  r.attempted = all.size();
  for (const auto& rec : all) r.failed += rec.outcome != Outcome::Ok;

  // --- per-layer metrics (traced), read before the checks run models -------
  if (opt.trace) {
    double service_ms = 0.0, late_ms = 0.0;
    std::size_t ok = 0;
    for (const auto& rec : all) {
      late_ms += 1e3 * (rec.send_s - rec.due_s);
      if (rec.outcome != Outcome::Ok) continue;
      service_ms += 1e3 * (rec.done_s - rec.send_s);
      ++ok;
    }
    const double n_req = static_cast<double>(std::max<std::size_t>(1, all.size()));
    const auto batches = window.timer_count("serve/batch_forward");
    const double queue_ms =
        1e3 * window.timer_s("serve/queue_wait") /
        static_cast<double>(std::max<std::uint64_t>(1, window.timer_count("serve/queue_wait")));
    const double forward_ms =
        1e3 * window.timer_s("serve/batch_forward") /
        static_cast<double>(std::max<std::uint64_t>(1, batches));
    const double mean_service =
        service_ms / static_cast<double>(std::max<std::size_t>(1, ok));
    const double repeats = static_cast<double>(setups.size());
    r.layers.push_back({"serve.queue_wait_ms", queue_ms, "ms"});
    r.layers.push_back({"serve.batch_forward_ms", forward_ms, "ms"});
    r.layers.push_back(
        {"serve.mean_batch_rows",
         static_cast<double>(window.counter("serve/batch_rows")) /
             static_cast<double>(std::max<std::uint64_t>(1, window.counter("serve/batches"))),
         "rows"});
    r.layers.push_back({"serve.batches", static_cast<double>(window.counter("serve/batches")), "count"});
    r.layers.push_back({"serve.transport_ms", mean_service - queue_ms - forward_ms, "ms"});
    r.layers.push_back({"serve.gen_late_ms", late_ms / n_req, "ms"});
    r.layers.push_back({"serve.sent", static_cast<double>(all.size()), "count"});
    r.layers.push_back({"serve.ok", static_cast<double>(ok), "count"});
    r.layers.push_back({"serve.failed", static_cast<double>(all.size() - ok), "count"});
    // The attack layer is idle here.
    r.layers.push_back({"attacks.logit_rows", 0.0, "count"});
    r.layers.push_back({"attacks.grad_rows", 0.0, "count"});
    r.layers.push_back({"attacks.success_ratio", 0.0, "ratio"});
    // Setup spans happen once per cold start; report them per start.
    r.layers.push_back({"core.train_classifier_s", span_total_s("core.train_classifier") / repeats, "s"});
    r.layers.push_back({"core.train_ae_s", span_total_s("core.train_ae") / repeats, "s"});
    r.layers.push_back({"magnet.calibrate_s", span_total_s("magnet.calibrate") / repeats, "s"});
    r.layers.push_back({"data.generate_s", span_total_s("data.generate") / repeats, "s"});
    add_tensor_layers(r, window, cpu1 - cpu0, t1 - t0);
    // classify runs inside the daemon's batcher, out of the benchmark's
    // reach: its wall time is the batcher's serve/batch_forward timer.
    r.layers.push_back({"magnet.classify_s", window.timer_s("serve/batch_forward"), "s"});
    add_magnet_stage_layers(r, window);
    add_span_attribution(r, t0, t1);
  }

  // --- correctness ----------------------------------------------------------
  {
    const bool tracing = Tracer::global().enabled();
    Tracer::global().set_enabled(false);
    adv::core::ModelZoo zoo(cfg);
    const auto pipe = build_default_magnet(zoo, id);
    Tracer::global().set_enabled(tracing);
    std::size_t differ = 0, seen = 0, rows = 0, correct_rows = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const DefenseOutcome serial = pipe->classify(pool[i].rows, pool[i].scheme);
      for (std::size_t k = 0; k < serial.predicted.size(); ++k, ++rows) {
        correct_rows += !serial.rejected[k] &&
                        serial.predicted[k] == pool[i].labels[k];
      }
      for (const auto& per_conn : gen.first) {
        if (!per_conn[i]) continue;
        ++seen;
        differ += !outcomes_identical(*per_conn[i], serial);
      }
    }
    r.check(seen > 0 && differ == 0,
            "OK responses bitwise equal a serial in-process classify",
            std::to_string(differ) + " of " + std::to_string(seen) +
                " differ, " + std::to_string(gen.mismatches.load()) +
                " repeat mismatches");
    r.check(gen.mismatches.load() == 0, "repeated requests answer identically");
    const double acc = static_cast<double>(correct_rows) / static_cast<double>(rows);
    r.check(acc >= kCleanAccuracyFloor,
            "defended clean accuracy floor on the request pool",
            "accuracy " + std::to_string(acc));
  }

  gen.clients.clear();
  daemon->stop();
  std::filesystem::remove(socket);
  return r;
}

}  // namespace perfbench
