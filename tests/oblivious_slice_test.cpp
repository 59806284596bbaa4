// Oblivious slices (attacks/target.hpp): Attack::run(nn::Sequential&) and
// ModelZoo's shared EN/L1 EAD run craft as min(T, N) contiguous image
// slices across the global pool, each against its own ObliviousTarget.
// For every registry attack and for ead_attack_multi, at several batch
// sizes, the sliced result must be bitwise what one unsliced run through
// an ObliviousTarget computes. Also covered: the slice partition and
// merge, metrics counted once per call, a call from inside a pool task
// staying one slice, and an exception in one slice reaching the caller.
// tools/ci.sh also runs this binary under ThreadSanitizer (at the
// default pool size and at ADV_THREADS=3, uneven slices) and under
// ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <iterator>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "attacks/attack.hpp"
#include "attacks/ead.hpp"
#include "attacks/target.hpp"
#include "core/model_zoo.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace adv::attacks {
namespace {

constexpr std::size_t kRows[] = {1, 2, 3, 5, 61};
constexpr std::size_t kHw = 8;

// Random-init MNIST-shaped classifier on 8x8 images: cheap, and its
// passes go through the same conv/pool/linear stack as the real one.
nn::Sequential& model() {
  static nn::Sequential m = [] {
    Rng rng(17);
    return core::build_classifier(core::DatasetId::Mnist, kHw, rng);
  }();
  return m;
}

Tensor images(std::size_t rows) {
  Tensor t(Shape({rows, 1, kHw, kHw}));
  Rng rng(5);
  fill_uniform(t, rng, 0.0f, 1.0f);
  return t;
}

// The model's own predictions, so untargeted attacks start from a
// correctly classified row.
std::vector<int> labels(const Tensor& x) {
  return nn::predict_labels(model(), x);
}

void expect_identical(const AttackResult& got, const AttackResult& want) {
  ASSERT_EQ(got.adversarial.shape(), want.adversarial.shape());
  ASSERT_EQ(std::memcmp(got.adversarial.data(), want.adversarial.data(),
                        got.adversarial.numel() * sizeof(float)),
            0);
  ASSERT_EQ(got.success, want.success);
  ASSERT_EQ(got.l1, want.l1);
  ASSERT_EQ(got.l2, want.l2);
  ASSERT_EQ(got.linf, want.linf);
}

// Results with distinct values per row, for the partition/merge tests.
AttackResult fixture(std::size_t rows) {
  AttackResult r;
  r.adversarial = Tensor(Shape({rows, 1, 2, 2}));
  for (std::size_t i = 0; i < r.adversarial.numel(); ++i) {
    r.adversarial[i] = 0.25f * static_cast<float>(i) - 1.0f;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const float v = static_cast<float>(i);
    r.success.push_back(i % 3 != 1);
    r.l1.push_back(v);
    r.l2.push_back(0.5f * v);
    r.linf.push_back(0.1f * v);
  }
  return r;
}

AttackResult rows_of(const AttackResult& r, IndexRange range) {
  AttackResult out;
  out.adversarial = r.adversarial.slice_rows(range.begin, range.end);
  const auto sub = [&](const auto& v) {
    return std::decay_t<decltype(v)>(v.begin() + range.begin,
                                     v.begin() + range.end);
  };
  out.success = sub(r.success);
  out.l1 = sub(r.l1);
  out.l2 = sub(r.l2);
  out.linf = sub(r.linf);
  return out;
}

struct NamedOverrides {
  const char* name;
  AttackOverrides overrides;
};

// Budgets small enough for the sanitizer stages; initial_c and the step
// size are raised so the optimizers flip some rows within them.
const NamedOverrides kAttacks[] = {
    {"fgsm", {.epsilon = 0.1f}},
    {"ifgsm", {.epsilon = 0.05f, .iterations = 4}},
    {"cw-l2",
     {.kappa = 0.0f, .learning_rate = 0.05f, .initial_c = 10.0f,
      .iterations = 6, .binary_search_steps = 2}},
    {"deepfool", {.iterations = 6}},
    {"ead",
     {.kappa = 0.0f, .beta = 0.01f, .learning_rate = 0.05f,
      .initial_c = 10.0f, .iterations = 6, .binary_search_steps = 2}},
};

EadConfig multi_config() {
  EadConfig c;
  c.kappa = 0.0f;
  c.beta = 0.01f;
  c.learning_rate = 0.05f;
  c.initial_c = 10.0f;
  c.iterations = 6;
  c.binary_search_steps = 2;
  return c;
}

constexpr DecisionRule kRules[] = {DecisionRule::EN, DecisionRule::L1};

// --- partition and merge ----------------------------------------------

TEST(SliceRange, TilesExactlyWithBalancedSizes) {
  for (const std::size_t total : {0u, 1u, 5u, 7u, 64u, 1000u}) {
    for (const std::size_t count : {1u, 2u, 3u, 7u, 16u}) {
      std::size_t covered = 0, min_sz = total + 1, max_sz = 0;
      std::size_t expect_begin = 0;
      for (std::size_t k = 0; k < count; ++k) {
        const IndexRange r = slice_range(total, k, count);
        EXPECT_EQ(r.begin, expect_begin) << total << " " << k << "/" << count;
        expect_begin = r.end;
        covered += r.size();
        min_sz = std::min(min_sz, r.size());
        max_sz = std::max(max_sz, r.size());
      }
      EXPECT_EQ(expect_begin, total);
      EXPECT_EQ(covered, total);
      if (total >= count) {
        EXPECT_LE(max_sz - min_sz, 1u);
      }
    }
  }
}

TEST(SliceRange, RejectsOutOfRangeIndex) {
  EXPECT_THROW(slice_range(10, 2, 2), std::invalid_argument);
  EXPECT_THROW(slice_range(10, 0, 0), std::invalid_argument);
}

TEST(AttackSliceMerge, SlicesMergeBackBitwise) {
  const AttackResult full = fixture(5);
  for (const std::size_t count : {1u, 2u, 3u, 5u}) {
    std::vector<AttackResult> parts;
    for (std::size_t k = 0; k < count; ++k) {
      parts.push_back(rows_of(full, slice_range(5, k, count)));
    }
    expect_identical(merge_attack_results(parts), full);
  }
  EXPECT_TRUE(merge_attack_results({}).success.empty());
}

// --- sliced vs unsliced -----------------------------------------------

// Sliced Attack::run(model) against one unsliced run(ObliviousTarget),
// per registry attack and batch size.
class SlicedAttack
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(SlicedAttack, MatchesUnslicedTargetBitwise) {
  const auto& [which, n] = GetParam();
  const auto attack =
      make_attack(kAttacks[which].name, kAttacks[which].overrides);
  const Tensor x = images(n);
  const std::vector<int> y = labels(x);
  ObliviousTarget whole(model());
  const AttackResult want = attack->run(whole, x, y);
  expect_identical(attack->run(model(), x, y), want);
  // Not vacuous: on the largest batch every attack flips some rows.
  if (n == kRows[std::size(kRows) - 1]) {
    EXPECT_GT(want.success_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Attacks, SlicedAttack,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kAttacks)),
                       ::testing::ValuesIn(kRows)),
    [](const auto& info) {
      std::string name = kAttacks[std::get<0>(info.param)].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_N" + std::to_string(std::get<1>(info.param));
    });

// ModelZoo::ead's shared EN/L1 run, sliced, against one unsliced run.
class SlicedEadMulti : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlicedEadMulti, MatchesUnslicedTargetBitwise) {
  const std::size_t n = GetParam();
  const EadConfig cfg = multi_config();
  const Tensor x = images(n);
  const std::vector<int> y = labels(x);
  ObliviousTarget whole(model());
  const std::vector<AttackResult> want =
      ead_attack_multi(whole, x, y, cfg, kRules);
  const std::vector<AttackResult> got = craft_oblivious_slices(
      model(), x, y,
      [&](AttackTarget& t, const Tensor& xs, const std::vector<int>& ys) {
        return ead_attack_multi(t, xs, ys, cfg, kRules);
      });
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) expect_identical(got[r], want[r]);
}

INSTANTIATE_TEST_SUITE_P(Rows, SlicedEadMulti, ::testing::ValuesIn(kRows),
                         [](const auto& info) {
                           return "N" + std::to_string(info.param);
                         });

// --- slicing behaviour ------------------------------------------------

// A craft that returns its slice unchanged.
std::vector<AttackResult> pass_through(const Tensor& x,
                                       const std::vector<int>& y) {
  AttackResult r;
  r.adversarial = x;
  r.success.assign(y.size(), false);
  fill_distortions(r, x);
  std::vector<AttackResult> out;
  out.push_back(std::move(r));
  return out;
}

// Rows per craft call, in call-completion order.
struct SliceLog {
  std::mutex mu;
  std::vector<std::size_t> rows;

  SliceCraft craft() {
    return [this](AttackTarget&, const Tensor& x, const std::vector<int>& y) {
      {
        std::lock_guard lock(mu);
        rows.push_back(x.dim(0));
      }
      return pass_through(x, y);
    };
  }
};

TEST(ObliviousSlices, TopLevelCallCutsMinThreadsRowsSlices) {
  const std::size_t t = ThreadPool::global().thread_count();
  for (const std::size_t n : kRows) {
    const Tensor x = images(n);
    SliceLog log;
    const std::vector<AttackResult> out =
        craft_oblivious_slices(model(), x, labels(x), log.craft());
    const std::size_t slices = std::min(t, n);
    ASSERT_EQ(log.rows.size(), slices) << "N=" << n;
    std::vector<std::size_t> want;
    for (std::size_t s = 0; s < slices; ++s) {
      want.push_back(slice_range(n, s, slices).size());
    }
    std::sort(log.rows.begin(), log.rows.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(log.rows, want) << "N=" << n;
    // The pass-through craft returns its input: merged in slice order.
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(std::memcmp(out[0].adversarial.data(), x.data(),
                          x.numel() * sizeof(float)),
              0);
  }
}

TEST(ObliviousSlices, CallInsidePoolTaskStaysOneSlice) {
  const std::size_t n = 61;
  const Tensor x = images(n);
  const std::vector<int> y = labels(x);
  SliceLog log;
  const SliceCraft craft = log.craft();
  ThreadPool outer(2);
  outer.parallel_for(0, 2, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      craft_oblivious_slices(model(), x, y, craft);
    }
  });
  EXPECT_EQ(log.rows, (std::vector<std::size_t>{n, n}));
}

TEST(ObliviousSlices, ExceptionInOneSliceReachesCaller) {
  const std::size_t n = 61;
  const Tensor x = images(n);
  std::vector<int> y = labels(x);
  y.back() = -1;  // marks the last slice
  std::atomic<std::size_t> calls{0};
  const SliceCraft craft = [&](AttackTarget&, const Tensor& xs,
                               const std::vector<int>& ys) {
    calls.fetch_add(1);
    if (ys.back() == -1) throw std::runtime_error("slice failed");
    return pass_through(xs, ys);
  };
  try {
    craft_oblivious_slices(model(), x, y, craft);
    FAIL() << "expected the slice's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "slice failed");
  }
  // Every slice ran to completion (or threw) before the rethrow.
  EXPECT_EQ(calls.load(), std::min(ThreadPool::global().thread_count(), n));
  // The pool stays usable.
  y.back() = 0;
  EXPECT_EQ(craft_oblivious_slices(model(), x, y, craft).at(0).success.size(),
            n);
}

TEST(ObliviousSlices, RejectsLabelCountMismatch) {
  const Tensor x = images(5);
  SliceLog log;
  EXPECT_THROW(craft_oblivious_slices(model(), x, std::vector<int>(4, 0),
                                      log.craft()),
               std::invalid_argument);
  EXPECT_TRUE(log.rows.empty());
}

TEST(ObliviousSlices, OneMetricsScopeCountsTheRunOnce) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "ADV_OBS pinned off";
  auto& reg = obs::MetricsRegistry::global();
  const auto attack = make_attack("cw-l2", kAttacks[2].overrides);
  const std::size_t n = 61;
  const Tensor x = images(n);
  const std::vector<int> y = labels(x);
  const auto value = [&](const char* what) {
    return reg.counter(std::string("attack/cw-l2/") + what).value();
  };
  const std::uint64_t runs0 = value("runs"), images0 = value("images"),
                      iters0 = value("iterations"),
                      succ0 = value("successes");
  const AttackResult r = attack->run(model(), x, y);
  EXPECT_EQ(value("runs"), runs0 + 1);
  EXPECT_EQ(value("images"), images0 + n);
  EXPECT_EQ(value("iterations"), iters0 + attack->configured_iterations());
  EXPECT_EQ(value("successes"), succ0 + r.success_count());
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace adv::attacks
