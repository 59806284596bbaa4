// Unit tests for the benchmark's own measurement code (src/benchlib.*):
// the percentile sample-support rule, seeded schedule determinism, self
// time from nested spans, and the max_rps selection rule.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "benchlib.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // n, n-1, ..., 1: deliberately unsorted
}

TEST(Percentile, SamplesBeyondIsNMinusNearestRank) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(100, 50.0), 50u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
  EXPECT_EQ(samples_beyond(5, 100.0), 0u);
}

TEST(Percentile, NearestRankValue) {
  const auto v = iota_samples(1000);
  EXPECT_EQ(supported_percentile(v, 99.0), 990.0);
  EXPECT_EQ(supported_percentile(v, 50.0), 500.0);
}

TEST(Percentile, RefusedWithoutTenSamplesBeyond) {
  EXPECT_FALSE(supported_percentile(iota_samples(999), 99.0).has_value());
  EXPECT_TRUE(supported_percentile(iota_samples(1000), 99.0).has_value());
  EXPECT_FALSE(supported_percentile(iota_samples(19), 50.0).has_value());
  EXPECT_TRUE(supported_percentile(iota_samples(20), 50.0).has_value());
  EXPECT_FALSE(supported_percentile({}, 50.0).has_value());
  // p90 needs 100 samples, p99 1000.
  EXPECT_FALSE(supported_percentile(iota_samples(99), 90.0).has_value());
  EXPECT_TRUE(supported_percentile(iota_samples(100), 90.0).has_value());
}

TEST(Percentile, FailuresAreNeverDroppedAndCountAsOverLimit) {
  auto v = iota_samples(1000);
  for (std::size_t i = 0; i < 20; ++i) {
    v[i] = std::numeric_limits<double>::infinity();
  }
  EXPECT_TRUE(std::isinf(*supported_percentile(v, 99.0)));
}

TEST(Percentile, WindowedIsTheMedianOfPerWindowValues) {
  // Five windows of 100 samples; one window is a stall ten times slower.
  std::vector<double> v;
  for (std::size_t w = 0; w < 5; ++w) {
    for (std::size_t i = 0; i < 100; ++i) {
      v.push_back((w == 2 ? 10.0 : 1.0) * static_cast<double>(i + 1 + w));
    }
  }
  // Per-window p90: 90+w for w != 2, 920 for the stall: median 93.
  EXPECT_EQ(windowed_percentile(v, 90.0, 5), 93.0);
  // The pooled p90 lands in the stall.
  EXPECT_GT(*supported_percentile(v, 90.0), 100.0);
}

TEST(Percentile, WindowedNeedsSupportInEveryWindow) {
  const auto v = iota_samples(500);
  EXPECT_TRUE(windowed_percentile(v, 90.0, 5).has_value());   // 10 beyond each
  EXPECT_FALSE(windowed_percentile(v, 90.0, 6).has_value());  // 83 per window
  EXPECT_FALSE(windowed_percentile(v, 50.0, 0).has_value());
  EXPECT_FALSE(windowed_percentile({1.0, 2.0}, 50.0, 5).has_value());
}

TEST(Percentile, WindowedRateIsTheMedianWindowRate) {
  // Windows of 1 s over [10, 13): 4, 1 and 6 completions; a stall that
  // empties one window moves one value, not the median. Times outside
  // the range (in flight at the end) count nowhere.
  std::vector<double> done = {10.1, 10.2, 10.3, 10.9, 11.5,
                              12.0, 12.1, 12.2, 12.3, 12.4, 12.9, 13.0, 9.9};
  EXPECT_DOUBLE_EQ(windowed_rate(done, 10.0, 13.0, 3), 4.0);
  EXPECT_DOUBLE_EQ(windowed_rate(done, 10.0, 13.0, 1), 11.0 / 3.0);
}

TEST(Schedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(7, 1, 500.0, 2.0, 64);
  const auto b = poisson_schedule(7, 1, 500.0, 2.0, 64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].item, b[i].item);
  }
}

TEST(Schedule, SeedAndStreamChangeTheSchedule) {
  const auto a = poisson_schedule(7, 1, 500.0, 2.0, 64);
  const auto b = poisson_schedule(8, 1, 500.0, 2.0, 64);
  const auto c = poisson_schedule(7, 2, 500.0, 2.0, 64);
  EXPECT_NE(a.front().due_s, b.front().due_s);
  EXPECT_NE(a.front().due_s, c.front().due_s);
}

TEST(Schedule, PoissonShape) {
  const auto a = poisson_schedule(3, 0, 1000.0, 20.0, 16);
  // 20k expected arrivals; a Poisson count is within 4 sigma (~566).
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 566.0);
  double prev = 0.0;
  std::vector<std::size_t> hits(16);
  for (const auto& x : a) {
    EXPECT_GT(x.due_s, prev);
    EXPECT_LT(x.due_s, 20.0);
    prev = x.due_s;
    ++hits.at(x.item);
  }
  for (const std::size_t h : hits) EXPECT_GT(h, 1000u);
}

TEST(Schedule, ItemsAreDealtInShuffledRounds) {
  const auto a = poisson_schedule(5, 3, 1000.0, 2.0, 16);
  ASSERT_GT(a.size(), 3 * 16u);
  for (std::size_t r = 0; r + 16 <= a.size(); r += 16) {
    std::vector<std::size_t> hits(16);
    for (std::size_t i = r; i < r + 16; ++i) ++hits.at(a[i].item);
    for (const std::size_t h : hits) EXPECT_EQ(h, 1u) << "round at " << r;
  }
  bool shuffled = false;
  for (std::size_t i = 0; i < 16; ++i) shuffled |= a[i].item != a[16 + i].item;
  EXPECT_TRUE(shuffled);
}

TEST(Ladder, GeometricRungs) {
  const auto l = geometric_ladder(100.0, 1.05, 3);
  ASSERT_EQ(l.size(), 3u);
  EXPECT_DOUBLE_EQ(l[0], 100.0);
  EXPECT_DOUBLE_EQ(l[2], 110.25);
}

TEST(Ladder, BisectionFindsHighestPassingRung) {
  for (std::size_t rungs = 1; rungs <= 40; ++rungs) {
    for (std::size_t threshold = 0; threshold <= rungs; ++threshold) {
      // Rungs < threshold pass.
      std::size_t probes = 0;
      const auto best = bisect_ladder(rungs, [&](std::size_t k) {
        ++probes;
        return k < threshold;
      });
      if (threshold == 0) {
        EXPECT_FALSE(best.has_value());
      } else {
        ASSERT_TRUE(best.has_value());
        EXPECT_EQ(*best, threshold - 1);
      }
      EXPECT_LE(probes, static_cast<std::size_t>(std::ceil(
                            std::log2(static_cast<double>(rungs) + 1.0))));
    }
  }
}

StepSamples steady_step(std::size_t n, double latency, double lateness) {
  StepSamples s;
  s.latency_ms.assign(n, latency);
  s.lateness_ms.assign(n, lateness);
  return s;
}

TEST(Ladder, StepPassesWithinLimit) {
  const auto v = judge_step(steady_step(1000, 2.0, 0.1), 90.0, 5.0, 1.0);
  EXPECT_TRUE(v.pass) << v.reason;
  EXPECT_EQ(v.latency_ms, 2.0);
}

TEST(Ladder, StepJudgedAtItsPercentile) {
  auto s = steady_step(1000, 2.0, 0.1);
  // 5% of requests over the limit: fails at p99, passes at p90.
  for (std::size_t i = 0; i < 50; ++i) s.latency_ms[i] = 9.0;
  EXPECT_FALSE(judge_step(s, 99.0, 5.0, 1.0).pass);
  EXPECT_TRUE(judge_step(s, 90.0, 5.0, 1.0).pass);
  for (std::size_t i = 0; i < 101; ++i) s.latency_ms[i] = 9.0;
  const auto v = judge_step(s, 90.0, 5.0, 1.0);
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.reason, "latency over limit");
}

TEST(Ladder, AnyFailureFailsTheStep) {
  auto s = steady_step(1000, 2.0, 0.1);
  s.latency_ms[0] = std::numeric_limits<double>::infinity();
  s.failed = 1;
  const auto v = judge_step(s, 90.0, 5.0, 1.0);
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.reason, "1 failed");
}

TEST(Ladder, GrowingLatenessFailsTheStep) {
  auto s = steady_step(400, 2.0, 0.0);
  for (std::size_t i = 0; i < 400; ++i) {
    s.lateness_ms[i] = 0.01 * static_cast<double>(i);  // 0 .. 4 ms
  }
  const auto v = judge_step(s, 90.0, 5.0, 1.0);
  EXPECT_FALSE(v.pass);
  EXPECT_NEAR(v.lateness_growth_ms, 3.0, 1e-9);  // quarter medians 0.5 .. 3.5
  EXPECT_EQ(v.reason, "generator lateness grew");
}

TEST(Ladder, ShortHiccupIsNotLatenessGrowth) {
  auto s = steady_step(400, 2.0, 0.0);
  for (std::size_t i = 380; i < 400; ++i) s.lateness_ms[i] = 50.0;
  EXPECT_DOUBLE_EQ(lateness_growth_ms(s.lateness_ms), 0.0);
  EXPECT_TRUE(judge_step(s, 90.0, 5.0, 1.0).pass);
}

TEST(Ladder, LatenessMustRiseEveryQuarterToCountAsGrowth) {
  std::vector<double> late(400, 0.0);
  // A hiccup over the second quarter: quarters 0, 9, 0, 0 — no trend.
  for (std::size_t i = 100; i < 200; ++i) late[i] = 9.0;
  EXPECT_DOUBLE_EQ(lateness_growth_ms(late), 0.0);
  // Falling behind: quarters 0, 1, 2, 8.
  for (std::size_t i = 0; i < 400; ++i) {
    late[i] = i < 100 ? 0.0 : i < 200 ? 1.0 : i < 300 ? 2.0 : 8.0;
  }
  EXPECT_DOUBLE_EQ(lateness_growth_ms(late), 8.0);
}

TEST(Ladder, TooFewSamplesFailTheStep) {
  const auto v = judge_step(steady_step(50, 1.0, 0.0), 90.0, 5.0, 1.0);
  EXPECT_FALSE(v.pass);
  EXPECT_EQ(v.reason, "too few samples");
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, const char* name,
                double a, double b) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_s = a;
  s.end_s = b;
  return s;
}

TEST(Spans, SelfTimeSubtractsNestedChildren) {
  const std::vector<SpanRecord> spans = {
      span(1, 0, "attacks.ead", 0.0, 10.0),
      span(2, 1, "nn.forward", 1.0, 3.0),
      span(3, 1, "nn.backward", 4.0, 7.0),
      span(4, 3, "tensor.inner", 5.0, 6.0),
  };
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  const auto layers = self_time_by_layer(spans);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].first, "attacks");
  EXPECT_DOUBLE_EQ(layers[0].second, 5.0);
  EXPECT_EQ(layers[1].first, "nn");
  EXPECT_DOUBLE_EQ(layers[1].second, 4.0);
}

TEST(Spans, ConcurrentChildrenAreNotDoubleCounted) {
  // Two overlapping request spans under one phase span.
  const std::vector<SpanRecord> spans = {
      span(1, 0, "bench.nominal", 0.0, 10.0),
      span(2, 1, "serve.request", 1.0, 5.0),
      span(3, 1, "serve.request", 3.0, 6.0),
      span(4, 1, "serve.request", 9.0, 12.0),  // clipped to the parent
  };
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 10.0 - 5.0 - 1.0);
}

TEST(Spans, RecordedSpansNestPerThread) {
  Tracer::global().set_enabled(true);
  std::uint64_t outer_id = 0, cross_parent = 0;
  {
    Span outer("core.outer");
    outer_id = outer.id();
    { Span inner("nn.inner"); }
    std::thread([&] {
      Span other("serve.request", 42, outer_id);
      cross_parent = outer_id;
    }).join();
  }
  Tracer::global().set_enabled(false);
  { Span ignored("core.ignored"); }
  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& s : spans) {
    EXPECT_LE(s.start_s, s.end_s);
    if (s.name == "core.outer") {
      EXPECT_EQ(s.parent, 0u);
    }
    if (s.name == "nn.inner") {
      EXPECT_EQ(s.parent, outer_id);
    }
    if (s.name == "serve.request") {
      EXPECT_EQ(s.parent, cross_parent);
      EXPECT_EQ(s.request, 42u);
    }
  }
}

TEST(Spans, UnionMeasureClipsAndMerges) {
  EXPECT_DOUBLE_EQ(union_measure({{0, 2}, {1, 3}, {5, 6}}, 0, 10), 4.0);
  EXPECT_DOUBLE_EQ(union_measure({{-1, 2}, {8, 12}}, 0, 10), 4.0);
  EXPECT_DOUBLE_EQ(union_measure({}, 0, 10), 0.0);
}

}  // namespace
}  // namespace perfbench
