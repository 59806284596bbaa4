// GEMM correctness against a naive reference, across shapes and variants.
#include <gtest/gtest.h>

#include <tuple>

#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace adv {
namespace {

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

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-3f) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  Tensor a({static_cast<std::size_t>(m), static_cast<std::size_t>(k)});
  Tensor b({static_cast<std::size_t>(k), static_cast<std::size_t>(n)});
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  Tensor c;
  gemm(a, b, c);
  expect_close(c, naive_matmul(a, b));
}

TEST_P(GemmShapes, AtBMatchesTransposedNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + k + n + 5));
  // a stored as [k, m], logical op a^T * b.
  Tensor a_t({static_cast<std::size_t>(k), static_cast<std::size_t>(m)});
  Tensor b({static_cast<std::size_t>(k), static_cast<std::size_t>(n)});
  fill_normal(a_t, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  Tensor a({static_cast<std::size_t>(m), static_cast<std::size_t>(k)});
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      a.at(static_cast<std::size_t>(i), static_cast<std::size_t>(kk)) =
          a_t.at(static_cast<std::size_t>(kk), static_cast<std::size_t>(i));
    }
  }
  Tensor c;
  gemm_at_b(a_t, b, c);
  expect_close(c, naive_matmul(a, b));
}

TEST_P(GemmShapes, ABtMatchesTransposedNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + k * 7 + n * 11));
  Tensor a({static_cast<std::size_t>(m), static_cast<std::size_t>(k)});
  // b stored as [n, k], logical op a * b^T.
  Tensor b_t({static_cast<std::size_t>(n), static_cast<std::size_t>(k)});
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b_t, rng, 0.0f, 1.0f);
  Tensor b({static_cast<std::size_t>(k), static_cast<std::size_t>(n)});
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) {
      b.at(static_cast<std::size_t>(kk), static_cast<std::size_t>(j)) =
          b_t.at(static_cast<std::size_t>(j), static_cast<std::size_t>(kk));
    }
  }
  Tensor c;
  gemm_a_bt(a, b_t, c);
  expect_close(c, naive_matmul(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{5, 1, 7}, std::tuple{16, 16, 16},
                      std::tuple{33, 7, 19}, std::tuple{64, 128, 32},
                      std::tuple{128, 64, 96}));

TEST(Gemm, InnerDimMismatchThrows) {
  Tensor a({2, 3}), b({4, 5});
  Tensor c;
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_at_b(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_a_bt(a, b, c), std::invalid_argument);
}

TEST(Gemm, RankMismatchThrows) {
  Tensor a({6}), b({2, 3});
  Tensor c;
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
}

TEST(Gemm, RawAccumulateAddsIntoC) {
  Tensor a = Tensor::from_data(Shape({1, 2}), {1, 2});
  Tensor b = Tensor::from_data(Shape({2, 1}), {3, 4});
  Tensor c({1, 1}, 10.0f);
  ThreadPool one(1);
  gemm_raw(a.data(), b.data(), c.data(), 1, 2, 1,
           {.accumulate = true, .pool = &one});
  EXPECT_FLOAT_EQ(c[0], 21.0f);
  gemm_raw(a.data(), b.data(), c.data(), 1, 2, 1,
           {.accumulate = false, .pool = &one});
  EXPECT_FLOAT_EQ(c[0], 11.0f);
}

TEST(Gemm, LargeParallelMatchesSmallSerial) {
  // A matrix big enough to trigger the parallel path must agree with the
  // naive result (exercises determinism of the partitioned GEMM).
  Rng rng(77);
  Tensor a({70, 50}), b({50, 60});
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  Tensor c1, c2;
  gemm(a, b, c1);
  gemm(a, b, c2);
  expect_close(c1, c2, 0.0f);  // bit-identical across runs
  expect_close(c1, naive_matmul(a, b));
}

}  // namespace
}  // namespace adv
