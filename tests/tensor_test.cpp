// Unit and property tests for Shape, Tensor and tensor_ops.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv {
namespace {

TEST(Shape, RankAndNumel) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24u);
  EXPECT_EQ(s[0], 2u);
  EXPECT_EQ(s[2], 4u);
}

TEST(Shape, EmptyShapeHasZeroElements) {
  Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 0u);
}

TEST(Shape, EqualityAndToString) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_EQ(Shape({2, 3}).to_string(), "[2, 3]");
}

TEST(Shape, OutOfRangeIndexThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s[2], std::out_of_range);
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ConstructionFillsValue) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6u);
  for (float v : t.values()) EXPECT_FLOAT_EQ(v, 1.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_NO_THROW(Tensor::from_data(Shape({2, 2}), {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_data(Shape({2, 2}), {1, 2, 3}),
               std::invalid_argument);
}

TEST(Tensor, TwoDimensionalAccess) {
  Tensor t = Tensor::from_data(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(t.at(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(t.at(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(t.at(1, 2), 6.0f);
}

TEST(Tensor, FourDimensionalAccessIsNchw) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.0f;
  // Flat index: ((n*C + c)*H + h)*W + w.
  EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from_data(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, SliceRows) {
  Tensor t = Tensor::from_data(Shape({3, 2}), {1, 2, 3, 4, 5, 6});
  Tensor s = t.slice_rows(1, 3);
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(s.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s.at(1, 1), 6.0f);
  EXPECT_THROW(t.slice_rows(2, 4), std::out_of_range);
  EXPECT_THROW(t.slice_rows(2, 1), std::out_of_range);
}

TEST(Tensor, SetRowsWritesBack) {
  Tensor t({3, 2}, 0.0f);
  Tensor rows = Tensor::from_data(Shape({2, 2}), {9, 8, 7, 6});
  t.set_rows(1, rows);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(t.at(1, 0), 9.0f);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
  EXPECT_THROW(t.set_rows(2, rows), std::invalid_argument);
}

TEST(Tensor, SliceThenSetRoundTrips) {
  Tensor t = Tensor::from_data(Shape({4, 3}),
                               {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Tensor copy = t;
  Tensor mid = t.slice_rows(1, 3);
  copy.set_rows(1, mid);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_FLOAT_EQ(copy[i], t[i]);
  }
}

TEST(Tensor, CopyIsDeep) {
  Tensor a({2, 2}, 1.0f);
  Tensor b = a;
  b[0] = 5.0f;
  EXPECT_FLOAT_EQ(a[0], 1.0f);
}

// --- ops -------------------------------------------------------------

TEST(TensorOps, AddSubMulScale) {
  Tensor a = Tensor::from_data(Shape({2, 2}), {1, 2, 3, 4});
  Tensor b = Tensor::from_data(Shape({2, 2}), {4, 3, 2, 1});
  Tensor c = add(a, b);
  for (float v : c.values()) EXPECT_FLOAT_EQ(v, 5.0f);
  c = sub(a, b);
  EXPECT_FLOAT_EQ(c[0], -3.0f);
  EXPECT_FLOAT_EQ(c[3], 3.0f);
  c = mul(a, b);
  EXPECT_FLOAT_EQ(c[1], 6.0f);
  c = scale(a, 2.0f);
  EXPECT_FLOAT_EQ(c[3], 8.0f);
}

TEST(TensorOps, StackRowsConcatenatesPartsInOrder) {
  const Tensor a = Tensor::from_data(Shape({2, 1, 2}), {1, 2, 3, 4});
  const Tensor b = Tensor::from_data(Shape({1, 1, 2}), {5, 6});
  const Tensor c = Tensor::from_data(Shape({3, 1, 2}), {7, 8, 9, 10, 11, 12});
  const Tensor s = stack_rows({a, b, c});
  EXPECT_EQ(s.shape(), Shape({6, 1, 2}));
  for (std::size_t i = 0; i < s.numel(); ++i) {
    EXPECT_FLOAT_EQ(s[i], static_cast<float>(i + 1));
  }
  const Tensor lone = stack_rows({b});
  EXPECT_EQ(lone.shape(), b.shape());
  EXPECT_FLOAT_EQ(lone[1], 6.0f);
  const Tensor wide = Tensor::from_data(Shape({1, 1, 3}), {1, 2, 3});
  EXPECT_THROW(stack_rows({a, wide}), std::invalid_argument);
}

TEST(TensorOps, ShapeMismatchThrows) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_THROW(add_inplace(a, b), std::invalid_argument);
  EXPECT_THROW(mul_inplace(a, b), std::invalid_argument);
  EXPECT_THROW(axpy_inplace(a, 1.0f, b), std::invalid_argument);
  EXPECT_THROW(l1_distance(a, b), std::invalid_argument);
}

TEST(TensorOps, AxpyAndClamp) {
  Tensor a = Tensor::from_data(Shape({3}), {0.0f, 0.5f, 1.0f});
  Tensor x = Tensor::from_data(Shape({3}), {1.0f, 1.0f, 1.0f});
  axpy_inplace(a, 2.0f, x);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  clamp_inplace(a, 0.0f, 2.4f);
  EXPECT_FLOAT_EQ(a[2], 2.4f);
}

TEST(TensorOps, Reductions) {
  Tensor a = Tensor::from_data(Shape({4}), {-1, 2, -3, 4});
  EXPECT_FLOAT_EQ(sum(a), 2.0f);
  EXPECT_FLOAT_EQ(mean(a), 0.5f);
  EXPECT_FLOAT_EQ(min_value(a), -3.0f);
  EXPECT_FLOAT_EQ(max_value(a), 4.0f);
  EXPECT_FLOAT_EQ(norm_l1(a), 10.0f);
  EXPECT_FLOAT_EQ(norm_l2(a), std::sqrt(30.0f));
  EXPECT_FLOAT_EQ(norm_linf(a), 4.0f);
  EXPECT_EQ(argmax(a), 3u);
}

TEST(TensorOps, EmptyReductionsThrow) {
  Tensor e;
  EXPECT_THROW(mean(e), std::invalid_argument);
  EXPECT_THROW(min_value(e), std::invalid_argument);
  EXPECT_THROW(argmax(e), std::invalid_argument);
}

TEST(TensorOps, ArgmaxRow) {
  Tensor a = Tensor::from_data(Shape({2, 3}), {1, 9, 2, 8, 1, 3});
  EXPECT_EQ(argmax_row(a, 0), 1u);
  EXPECT_EQ(argmax_row(a, 1), 0u);
  EXPECT_THROW(argmax_row(a, 2), std::out_of_range);
  Tensor b({6});
  EXPECT_THROW(argmax_row(b, 0), std::invalid_argument);
}

TEST(TensorOps, Distances) {
  Tensor a = Tensor::from_data(Shape({3}), {0, 0, 0});
  Tensor b = Tensor::from_data(Shape({3}), {3, -4, 0});
  EXPECT_FLOAT_EQ(l1_distance(a, b), 7.0f);
  EXPECT_FLOAT_EQ(l2_distance(a, b), 5.0f);
  EXPECT_FLOAT_EQ(linf_distance(a, b), 4.0f);
}

// Property tests: norm identities on random tensors.
class NormProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NormProperties, NormOrderingHolds) {
  Rng rng(GetParam());
  Tensor t({37});
  fill_normal(t, rng, 0.0f, 2.0f);
  const float l1 = norm_l1(t), l2 = norm_l2(t), li = norm_linf(t);
  // ||x||_inf <= ||x||_2 <= ||x||_1 <= sqrt(n) * ||x||_2
  EXPECT_LE(li, l2 + 1e-4f);
  EXPECT_LE(l2, l1 + 1e-4f);
  EXPECT_LE(l1, std::sqrt(37.0f) * l2 + 1e-3f);
}

TEST_P(NormProperties, TriangleInequality) {
  Rng rng(GetParam() + 99);
  Tensor a({24}), b({24});
  fill_uniform(a, rng, -1.0f, 1.0f);
  fill_uniform(b, rng, -1.0f, 1.0f);
  EXPECT_LE(norm_l2(add(a, b)), norm_l2(a) + norm_l2(b) + 1e-4f);
  EXPECT_LE(norm_l1(add(a, b)), norm_l1(a) + norm_l1(b) + 1e-4f);
}

TEST_P(NormProperties, DistanceIsTranslationInvariant) {
  Rng rng(GetParam() + 7);
  Tensor a({16}), b({16}), t({16});
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  fill_normal(t, rng, 0.0f, 1.0f);
  const float d0 = l2_distance(a, b);
  const float d1 = l2_distance(add(a, t), add(b, t));
  EXPECT_NEAR(d0, d1, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace adv
