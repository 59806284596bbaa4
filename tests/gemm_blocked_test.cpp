// Blocked/packed GEMM: correctness against a naive reference over
// adversarial shapes (every M/K/N straddling the MR/NR/MC/KC blocking
// edges), all transpose variants, accumulate on/off, and bit-identical
// outputs across thread counts.
//
// Thread scaling is exercised through GemmOpts::pool with dedicated 1-, 2-
// and 8-thread pools: ADV_THREADS pins the *global* pool's size at process
// start, so in-process pools are the only way to compare several thread
// counts in one test run — and they take the exact same code path the
// global pool does.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace adv {
namespace {

const std::size_t kSizes[] = {1, 3, 7, 31, 64, 129, 300};

Tensor random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t({r, c});
  fill_normal(t, rng, 0.0f, 1.0f);
  return t;
}

// double-accumulated scalar reference.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transposed(const Tensor& t) {
  Tensor out({t.dim(1), t.dim(0)});
  for (std::size_t i = 0; i < t.dim(0); ++i) {
    for (std::size_t j = 0; j < t.dim(1); ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}

void expect_close(const Tensor& got, const Tensor& want, float tol) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "at flat index " << i;
  }
}

// Relative tolerance scaled by the reduction length: the blocked kernel
// accumulates in float, the reference in double.
float tol_for(std::size_t k) { return 1e-4f * static_cast<float>(k) + 1e-4f; }

class BlockedGemmShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

// All three variants checked against the same naive product, sweeping N
// for each (M, K) pair so edge tiles appear on every axis.
TEST_P(BlockedGemmShapes, AllVariantsMatchNaive) {
  const auto [m, k] = GetParam();
  for (const std::size_t n : kSizes) {
    const Tensor a = random_matrix(m, k, m * 131 + k * 17 + n);
    const Tensor b = random_matrix(k, n, m + k * 313 + n * 71);
    const Tensor want = naive_matmul(a, b);
    Tensor c;
    gemm(a, b, c);
    expect_close(c, want, tol_for(k));
    Tensor c_at;
    gemm_at_b(transposed(a), b, c_at);
    expect_close(c_at, want, tol_for(k));
    Tensor c_bt;
    gemm_a_bt(a, transposed(b), c_bt);
    expect_close(c_bt, want, tol_for(k));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialShapes, BlockedGemmShapes,
    ::testing::Combine(::testing::ValuesIn(kSizes),
                       ::testing::ValuesIn(kSizes)));

TEST(BlockedGemm, AccumulateAddsIntoCAllVariants) {
  const std::size_t m = 31, k = 129, n = 64;
  const Tensor a = random_matrix(m, k, 1);
  const Tensor b = random_matrix(k, n, 2);
  const Tensor bias = random_matrix(m, n, 3);
  const Tensor prod = naive_matmul(a, b);

  for (int variant = 0; variant < 3; ++variant) {
    Tensor c = bias;
    switch (variant) {
      case 0: gemm(a, b, c, {.accumulate = true}); break;
      case 1: gemm_at_b(transposed(a), b, c, {.accumulate = true}); break;
      case 2: gemm_a_bt(a, transposed(b), c, {.accumulate = true}); break;
    }
    for (std::size_t i = 0; i < c.numel(); ++i) {
      ASSERT_NEAR(c[i], bias[i] + prod[i], tol_for(k))
          << "variant " << variant << " flat index " << i;
    }
  }
}

TEST(BlockedGemm, AccumulateIntoUnshapedCThrows) {
  const Tensor a = random_matrix(4, 5, 11);
  const Tensor b = random_matrix(5, 6, 12);
  Tensor c;  // empty: nothing to accumulate into
  EXPECT_THROW(gemm(a, b, c, {.accumulate = true}), std::invalid_argument);
}

TEST(BlockedGemm, SerialOptOutMatchesParallel) {
  const Tensor a = random_matrix(129, 300, 21);
  const Tensor b = random_matrix(300, 129, 22);
  Tensor par, ser;
  ThreadPool one(1);
  gemm(a, b, par);
  gemm(a, b, ser, {.pool = &one});
  ASSERT_EQ(par.shape(), ser.shape());
  EXPECT_EQ(0, std::memcmp(par.data(), ser.data(),
                           par.numel() * sizeof(float)));
}

TEST(BlockedGemm, BitIdenticalAcrossThreadCounts) {
  // Shapes chosen to make chunk boundaries fall mid-tile for every pool
  // size; the serial result is the baseline.
  const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
      {300, 257, 129}, {64, 513, 300}, {7, 300, 300}};
  ThreadPool pool1(1), pool2(2), pool8(8);
  for (const auto& [m, k, n] : shapes) {
    const Tensor a = random_matrix(m, k, m + 1000 * k);
    const Tensor b = random_matrix(k, n, k + 1000 * n);
    Tensor serial;
    gemm(a, b, serial, {.pool = &pool1});
    for (ThreadPool* pool : {&pool1, &pool2, &pool8}) {
      Tensor c;
      gemm(a, b, c, {.pool = pool});
      ASSERT_EQ(c.shape(), serial.shape());
      EXPECT_EQ(0, std::memcmp(c.data(), serial.data(),
                               c.numel() * sizeof(float)))
          << m << "x" << k << "x" << n << " with "
          << pool->thread_count() << " threads";
      // Transposed variants must be deterministic too (they share the
      // packing core, but check anyway: they are the backward pass).
      Tensor serial_at, c_at;
      gemm_at_b(transposed(a), b, serial_at, {.pool = &pool1});
      gemm_at_b(transposed(a), b, c_at, {.pool = pool});
      EXPECT_EQ(0, std::memcmp(c_at.data(), serial_at.data(),
                               c_at.numel() * sizeof(float)));
    }
  }
}

TEST(BlockedGemm, AccumulateBitIdenticalAcrossThreadCounts) {
  const std::size_t m = 300, k = 129, n = 257;
  const Tensor a = random_matrix(m, k, 5);
  const Tensor b = random_matrix(k, n, 6);
  const Tensor bias = random_matrix(m, n, 7);
  Tensor serial = bias;
  ThreadPool one(1);
  gemm(a, b, serial, {.accumulate = true, .pool = &one});
  ThreadPool pool8(8);
  Tensor par = bias;
  gemm(a, b, par, {.accumulate = true, .pool = &pool8});
  EXPECT_EQ(0, std::memcmp(par.data(), serial.data(),
                           par.numel() * sizeof(float)));
}

TEST(BlockedGemm, KZeroZeroesOrPreservesC) {
  Tensor a({2, 0}), b({0, 3});
  Tensor c({2, 3}, 5.0f);
  gemm(a, b, c);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c[i], 0.0f);
  Tensor c2({2, 3}, 5.0f);
  gemm(a, b, c2, {.accumulate = true});
  for (std::size_t i = 0; i < c2.numel(); ++i) EXPECT_FLOAT_EQ(c2[i], 5.0f);
}

}  // namespace
}  // namespace adv
