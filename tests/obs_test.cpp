// adv::obs unit tests: registry thread-safety under the pool, timer
// nesting, JSON emission, and the disabled path registering nothing.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "magnet/detector.hpp"
#include "magnet/pipeline.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "nn/structural.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace adv;
using obs::MetricsRegistry;

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Obs, CounterSumsExactlyUnderConcurrentIncrements) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("test/concurrent");
  constexpr std::size_t kN = 100000;
  // Every pool worker hammers the same counter; relaxed fetch_add must
  // lose no increments.
  ThreadPool::global().parallel_for(0, kN,
                                    [&](std::size_t b, std::size_t e) {
                                      for (std::size_t i = b; i < e; ++i) {
                                        c.add(1);
                                      }
                                    });
  EXPECT_EQ(c.value(), kN);
}

TEST(Obs, RegistryLookupIsThreadSafe) {
  MetricsRegistry reg;
  // Concurrent find-or-create of overlapping keys: one entry per key,
  // all increments retained.
  ThreadPool::global().parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      reg.counter("test/key" + std::to_string(i % 8)).add(1);
    }
  });
  EXPECT_EQ(reg.size(), 8u);
  std::uint64_t total = 0;
  for (const auto& s : reg.snapshot()) total += s.value;
  EXPECT_EQ(total, 64u);
}

TEST(Obs, ReferencesStayStableAcrossLaterRegistrations) {
  MetricsRegistry reg;
  obs::Counter& first = reg.counter("test/a");
  first.add(1);
  for (int i = 0; i < 100; ++i) {
    reg.counter("test/fill" + std::to_string(i));
  }
  obs::Counter& again = reg.counter("test/a");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(first.value(), 1u);
}

TEST(Obs, TimerRecordsCountTotalMinMax) {
  MetricsRegistry reg;
  obs::Timer& t = reg.timer("test/t");
  t.record_ns(50);
  t.record_ns(10);
  t.record_ns(30);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_EQ(t.total_ns(), 90u);
  EXPECT_EQ(t.min_ns(), 10u);
  EXPECT_EQ(t.max_ns(), 50u);
  EXPECT_EQ(reg.timer("test/empty").min_ns(), 0u);
}

TEST(Obs, ScopedTimersNest) {
  MetricsRegistry reg;
  obs::Timer& outer = reg.timer("test/outer");
  obs::Timer& inner = reg.timer("test/inner");
  {
    obs::ScopedTimer o(&outer);
    {
      obs::ScopedTimer i(&inner);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_EQ(inner.count(), 1u);
  // The inner scope is strictly contained in the outer one.
  EXPECT_GE(outer.total_ns(), inner.total_ns());
  EXPECT_GE(inner.total_ns(), 1000000u);  // slept >= 1ms
}

TEST(Obs, SnapshotFiltersByPrefix) {
  MetricsRegistry reg;
  reg.counter("alpha/one").add(1);
  reg.counter("alpha/two").add(2);
  reg.counter("beta/one").add(3);
  reg.gauge("alpha/g").set(1.5);
  const auto all = reg.snapshot();
  const auto alpha = reg.snapshot("alpha/");
  EXPECT_EQ(all.size(), 4u);
  ASSERT_EQ(alpha.size(), 3u);
  for (const auto& s : alpha) {
    EXPECT_EQ(s.key.rfind("alpha/", 0), 0u) << s.key;
  }
}

TEST(Obs, JsonEmissionRoundTrips) {
  MetricsRegistry reg;
  reg.counter("m/count").add(7);
  reg.gauge("m/rate").set(2.5);
  obs::Timer& t = reg.timer("m/lat\"ency");  // quote must be escaped
  t.record_ns(100);
  t.record_ns(300);

  const std::string json = obs::to_json(reg);
  // Structural checks: every metric present with its kind and values.
  EXPECT_NE(json.find("\"unit\": \"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"key\": \"m/count\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("2.5"), std::string::npos);
  EXPECT_NE(json.find("\"m/lat\\\"ency\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\": 400"), std::string::npos);
  EXPECT_NE(json.find("\"min_ns\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"max_ns\": 300"), std::string::npos);
  EXPECT_NE(json.find("\"mean_ns\": 200"), std::string::npos);

  // File emission writes the same bytes.
  const auto path =
      std::filesystem::temp_directory_path() / "adv_obs_test.json";
  ASSERT_TRUE(obs::write_json(path, reg));
  EXPECT_EQ(slurp(path), json);
  std::filesystem::remove(path);
}

TEST(Obs, JsonEscapesControlCharactersAndBackslashes) {
  MetricsRegistry reg;
  reg.counter("path\\with\\backslash").add(1);
  reg.counter("line\nbreak\tand\x01" "ctl").add(2);
  const std::string json = obs::to_json(reg);
  EXPECT_NE(json.find("\"path\\\\with\\\\backslash\""), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak\\tand\\u0001" "ctl"), std::string::npos);
  // The raw control bytes must not leak into the output.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(Obs, JsonOrderIsStableByKindThenKey) {
  // Registration order is scrambled on purpose; emission must come out as
  // counters, gauges, timers — each block key-sorted — so equivalent
  // registries always serialize to identical bytes.
  MetricsRegistry reg;
  reg.timer("z/t").record_ns(1);
  reg.gauge("m/g").set(1.0);
  reg.counter("b/c").add(1);
  reg.counter("a/c").add(1);
  reg.timer("a/t").record_ns(1);
  const std::string json = obs::to_json(reg);
  const std::size_t a_c = json.find("\"a/c\"");
  const std::size_t b_c = json.find("\"b/c\"");
  const std::size_t m_g = json.find("\"m/g\"");
  const std::size_t a_t = json.find("\"a/t\"");
  const std::size_t z_t = json.find("\"z/t\"");
  ASSERT_NE(a_c, std::string::npos);
  ASSERT_NE(z_t, std::string::npos);
  EXPECT_LT(a_c, b_c);
  EXPECT_LT(b_c, m_g);
  EXPECT_LT(m_g, a_t);
  EXPECT_LT(a_t, z_t);
}

TEST(Obs, SamplesToJsonMatchesRegistryEmission) {
  MetricsRegistry reg;
  reg.counter("s/c").add(4);
  reg.gauge("s/g").set(0.25);
  reg.timer("s/t").record_ns(9);
  EXPECT_EQ(obs::samples_to_json(reg.snapshot()), obs::to_json(reg));
}

// With instrumentation off (the default for tests), running the full set
// of instrumented operations must not register a single key: the global
// registry's size is unchanged, proving the hot paths do no metric work.
TEST(Obs, DisabledPathRegistersNothing) {
  if (obs::enabled_pinned_by_env() && obs::enabled()) {
    GTEST_SKIP() << "ADV_OBS=1 pins instrumentation on";
  }
  obs::set_enabled(false);  // no-op when pinned
  ASSERT_FALSE(obs::enabled());
  const std::size_t size0 = MetricsRegistry::global().size();

  Rng rng(5);
  nn::Sequential m;
  m.emplace<nn::Linear>(8, 8, rng);
  m.emplace<nn::ReLU>();
  Tensor x({4, 8}), g({4, 8});
  fill_uniform(x, rng, -1.0f, 1.0f);
  fill_uniform(g, rng, -1.0f, 1.0f);
  nn::Tape tape;
  m.forward(x, nn::Mode::Eval, &tape);
  m.backward(g, tape);

  Tensor a({64, 64}), b({64, 64}), c;
  fill_uniform(a, rng, -1.0f, 1.0f);
  fill_uniform(b, rng, -1.0f, 1.0f);
  gemm(a, b, c);

  ThreadPool::global().parallel_for(0, 100, [](std::size_t, std::size_t) {});

  obs::ScopedTimer t("should/not/register");
  EXPECT_EQ(MetricsRegistry::global().size(), size0);
}

// When instrumentation is switched on, the same
// operations register and advance the expected keys.
TEST(Obs, EnabledPathRecordsModelAndPoolMetrics) {
  if (obs::enabled_pinned_by_env() && !obs::enabled()) {
    GTEST_SKIP() << "ADV_OBS=0 pins instrumentation off";
  }
  obs::set_enabled(true);
  auto& reg = MetricsRegistry::global();
  const std::uint64_t fwd0 = reg.counter("model/forward_calls").value();
  const std::uint64_t pool0 = reg.counter("pool/parallel_for_calls").value();

  Rng rng(6);
  nn::Sequential m;
  m.emplace<nn::Linear>(8, 8, rng);
  m.emplace<nn::ReLU>();
  Tensor x({4, 8}), g({4, 8});
  fill_uniform(x, rng, -1.0f, 1.0f);
  fill_uniform(g, rng, -1.0f, 1.0f);
  nn::Tape tape;
  m.forward(x, nn::Mode::Eval, &tape);
  m.backward(g, tape);
  ThreadPool::global().parallel_for(0, 100, [](std::size_t, std::size_t) {});
  obs::set_enabled(false);

  EXPECT_EQ(reg.counter("model/forward_calls").value(), fwd0 + 1);
  if (ThreadPool::global().thread_count() > 1) {
    // Single-chunk runs stay inline and are deliberately not counted.
    EXPECT_GE(reg.counter("pool/parallel_for_calls").value(), pool0 + 1);
  }
  // Per-layer timers exist and saw the pass.
  EXPECT_GE(reg.timer("layer/0:Linear/forward").count(), 1u);
  EXPECT_GE(reg.timer("layer/1:ReLU/backward").count(), 1u);
}

// Every gemm call from every thread lands in its per-shape "gemm/MxKxN"
// timer and "gemm/MxKxN/flops" counter.
TEST(Obs, GemmShapeMetricsCountEveryCallFromEveryThread) {
  if (obs::enabled_pinned_by_env() && !obs::enabled()) {
    GTEST_SKIP() << "ADV_OBS=0 pins instrumentation off";
  }
  obs::set_enabled(true);
  auto& reg = MetricsRegistry::global();
  const std::string wide = "gemm/3x5x7", tall = "gemm/7x5x3";
  const std::uint64_t wide0 = reg.timer(wide).count();
  const std::uint64_t tall0 = reg.timer(tall).count();
  const std::uint64_t wide_flops0 = reg.counter(wide + "/flops").value();
  const std::uint64_t tall_flops0 = reg.counter(tall + "/flops").value();

  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Rng rng(10 + t);
      Tensor a({3, 5}), b({5, 7}), at({7, 5}), bt({5, 3}), c;
      for (Tensor* x : {&a, &b, &at, &bt}) fill_uniform(*x, rng, -1.0f, 1.0f);
      for (int i = 0; i < 3; ++i) gemm(a, b, c);
      for (int i = 0; i < 2; ++i) gemm(at, bt, c);
    });
  }
  for (auto& th : threads) th.join();
  obs::set_enabled(false);

  EXPECT_EQ(reg.timer(wide).count(), wide0 + 3 * kThreads);
  EXPECT_EQ(reg.timer(tall).count(), tall0 + 2 * kThreads);
  EXPECT_EQ(reg.counter(wide + "/flops").value(),
            wide_flops0 + 3 * kThreads * 2 * 3 * 5 * 7);
  EXPECT_EQ(reg.counter(tall + "/flops").value(),
            tall_flops0 + 2 * kThreads * 2 * 7 * 5 * 3);
}

// The serving path's cached handles record under the names perfbench and
// the emitters read: one timer sample per MagNet stage a scheme runs, one
// serve/batch_forward and serve/queue_wait sample per batch, and the
// serve/queue_depth gauge.
TEST(Obs, ServingStageMetricsKeepTheirNames) {
  if (obs::enabled_pinned_by_env() && !obs::enabled()) {
    GTEST_SKIP() << "ADV_OBS=0 pins instrumentation off";
  }
  Rng rng(7);
  auto clf = std::make_shared<nn::Sequential>();
  clf->emplace<nn::Flatten>();
  clf->emplace<nn::Linear>(1, 2, rng);
  auto ae = std::make_shared<nn::Sequential>();
  ae->emplace<nn::Conv2d>(nn::Conv2dConfig{1, 1, 1, 1, 0}, rng);
  auto pipe = std::make_shared<magnet::MagNetPipeline>(clf);
  auto det = std::make_shared<magnet::ReconstructionDetector>(ae, 1);
  det->set_threshold(0.5f);
  pipe->add_detector(det);
  pipe->set_reformer(std::make_shared<magnet::Reformer>(ae));

  obs::set_enabled(true);
  auto& reg = MetricsRegistry::global();
  const char* stages[] = {"magnet/stage/detectors", "magnet/stage/reformer",
                          "magnet/stage/classifier", "serve/batch_forward",
                          "serve/queue_wait"};
  std::vector<std::uint64_t> before;
  for (const char* k : stages) before.push_back(reg.timer(k).count());
  {
    serve::MicroBatcher batcher(
        [pipe]() -> std::shared_ptr<const magnet::MagNetPipeline> {
          return pipe;
        },
        {.executors = 1});
    const auto r =
        batcher.submit(Tensor({2, 1, 1, 1}, 0.3f), magnet::DefenseScheme::Full)
            .get();
    ASSERT_TRUE(r.ok) << r.error;
  }
  pipe->classify(Tensor({1, 1, 1, 1}, 0.3f), magnet::DefenseScheme::None);
  obs::set_enabled(false);

  // Two Full passes ran the detectors and the reformer; the classifier
  // also ran in the None pass.
  const std::uint64_t want[] = {1, 1, 2, 1, 1};
  for (std::size_t i = 0; i < std::size(stages); ++i) {
    EXPECT_EQ(reg.timer(stages[i]).count(), before[i] + want[i]) << stages[i];
  }
  const auto gauges = reg.snapshot("serve/queue_depth");
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].kind, MetricsRegistry::Sample::Kind::Gauge);
}

}  // namespace
