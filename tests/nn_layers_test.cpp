// Layer tests: output shapes, semantics, and numerical gradient checks.
//
// The gradient check validates BOTH parameter gradients and the gradient
// with respect to the layer input — the input path is what every attack
// in this library differentiates through.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/softmax.hpp"
#include "nn/structural.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace adv::nn {
namespace {

/// Scalar objective L = sum(w .* layer(x)) with fixed random w; compares
/// the analytic input/parameter gradients to central differences.
void check_gradients(Layer& layer, const Tensor& input, std::uint64_t seed,
                     float eps = 1e-3f, float tol = 2e-2f) {
  Tensor x = input;
  Tensor out = layer.forward(x, Mode::Eval);
  Tensor w(out.shape());
  Rng rng(seed);
  fill_uniform(w, rng, -1.0f, 1.0f);

  TapeEntry saved;
  layer.forward(x, nn::Mode::Eval, &saved);
  const Tensor dx = layer.backward(w, saved);
  ASSERT_EQ(dx.shape(), x.shape());

  auto objective = [&](const Tensor& probe) {
    const Tensor y = layer.forward(probe, nn::Mode::Eval);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(w[i]) * y[i];
    }
    return acc;
  };

  // Input gradient, spot-checked on a deterministic subset of entries.
  const std::size_t stride = std::max<std::size_t>(1, x.numel() / 24);
  for (std::size_t i = 0; i < x.numel(); i += stride) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double num = (objective(xp) - objective(xm)) / (2.0 * eps);
    EXPECT_NEAR(dx[i], num, tol) << "input grad mismatch at " << i;
  }

  // Parameter gradients.
  GradientSet grads(layer);
  layer.forward(x, nn::Mode::Eval, &saved);
  layer.backward(w, saved, grads.pointers());
  const auto params = layer.parameters();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& param = *params[p];
    const Tensor& grad = grads[p];
    const std::size_t pstride = std::max<std::size_t>(1, param.numel() / 16);
    for (std::size_t i = 0; i < param.numel(); i += pstride) {
      const float orig = param[i];
      param[i] = orig + eps;
      const double up = objective(x);
      param[i] = orig - eps;
      const double dn = objective(x);
      param[i] = orig;
      const double num = (up - dn) / (2.0 * eps);
      EXPECT_NEAR(grad[i], num, tol)
          << "param " << p << " grad mismatch at " << i;
    }
  }
}

Tensor random_input(Shape shape, std::uint64_t seed, float lo = -1.0f,
                    float hi = 1.0f) {
  Tensor t{std::move(shape)};
  Rng rng(seed);
  fill_uniform(t, rng, lo, hi);
  return t;
}

/// Bitwise equality of two tensors, so NaN payloads and signed zeros
/// compare exactly; names the first differing element.
void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_TRUE(a.same_shape(b)) << what << ": shape mismatch";
  for (std::size_t i = 0; i < a.numel(); ++i) {
    std::uint32_t ba = 0, bb = 0;
    std::memcpy(&ba, a.data() + i, sizeof(ba));
    std::memcpy(&bb, b.data() + i, sizeof(bb));
    ASSERT_EQ(ba, bb) << what << " differs at " << i << ": " << a[i]
                      << " vs " << b[i];
  }
}

/// Every value an element-wise kernel must treat exactly: NaN, signed
/// zeros, infinities, denormals and ordinary magnitudes.
const std::vector<float>& special_values() {
  static const std::vector<float> v = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1e-39f,
      -1e-39f,
      1.5f,
      -2.25f};
  return v;
}

/// Every (x, gin) pair of special_values() as two flat tensors.
std::pair<Tensor, Tensor> special_pairs() {
  const std::vector<float>& v = special_values();
  Tensor x({v.size() * v.size()}), gin({v.size() * v.size()});
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = 0; j < v.size(); ++j) {
      x[i * v.size() + j] = v[i];
      gin[i * v.size() + j] = v[j];
    }
  }
  return {x, gin};
}

// --- activations -------------------------------------------------------

TEST(ReLUTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x = Tensor::from_data(Shape({4}), {-1.0f, 0.0f, 0.5f, 2.0f});
  Tensor y = relu.forward(x, nn::Mode::Eval);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 0.5f);
  EXPECT_FLOAT_EQ(y[3], 2.0f);
}

TEST(ReLUTest, GradientCheck) {
  ReLU relu;
  // Keep inputs away from the kink at 0 for a clean finite difference.
  Tensor x = random_input({2, 7}, 21);
  for (float& v : x.values()) {
    if (std::fabs(v) < 0.05f) v += 0.1f;
  }
  check_gradients(relu, x, 22);
}

TEST(ReLUTest, BackwardMatchesScalarReferenceBitwise) {
  ReLU relu;
  const auto [x, gin] = special_pairs();
  TapeEntry saved;
  relu.forward(x, nn::Mode::Eval, &saved);
  Tensor want(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    want[i] = x[i] <= 0.0f ? 0.0f : gin[i];  // a NaN x passes gin through
  }
  expect_bitwise_equal(relu.backward(gin, saved), want, "ReLU backward");
}

TEST(SigmoidTest, MapsToUnitInterval) {
  Sigmoid sig;
  Tensor x = Tensor::from_data(Shape({3}), {-10.0f, 0.0f, 10.0f});
  Tensor y = sig.forward(x, nn::Mode::Eval);
  EXPECT_NEAR(y[0], 0.0f, 1e-4f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-4f);
}

TEST(SigmoidTest, GradientCheck) {
  Sigmoid sig;
  check_gradients(sig, random_input({2, 6}, 41), 42);
}

TEST(TanhTest, GradientCheck) {
  Tanh t;
  check_gradients(t, random_input({2, 6}, 51), 52);
}

TEST(ActivationTest, BackwardShapeMismatchThrows) {
  ReLU relu;
  TapeEntry saved;
  relu.forward(Tensor({2, 3}), nn::Mode::Eval, &saved);
  EXPECT_THROW(relu.backward(Tensor({3, 2}), saved), std::invalid_argument);
}

// --- linear ------------------------------------------------------------

TEST(LinearTest, ForwardComputesAffineMap) {
  Rng rng(61);
  Linear lin(2, 3, rng);
  // Overwrite parameters with known values.
  Tensor& w = *lin.parameters()[0];
  Tensor& b = *lin.parameters()[1];
  w = Tensor::from_data(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  b = Tensor::from_data(Shape({3}), {10, 20, 30});
  Tensor x = Tensor::from_data(Shape({1, 2}), {1, 1});
  Tensor y = lin.forward(x, nn::Mode::Eval);
  EXPECT_FLOAT_EQ(y[0], 15.0f);
  EXPECT_FLOAT_EQ(y[1], 27.0f);
  EXPECT_FLOAT_EQ(y[2], 39.0f);
}

TEST(LinearTest, RejectsWrongInputWidth) {
  Rng rng(62);
  Linear lin(4, 2, rng);
  EXPECT_THROW(lin.forward(Tensor({1, 3}), nn::Mode::Eval), std::invalid_argument);
}

TEST(LinearTest, GradientCheck) {
  Rng rng(63);
  Linear lin(5, 4, rng);
  check_gradients(lin, random_input({3, 5}, 64), 65);
}

TEST(LinearTest, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(66);
  Linear lin(2, 2, rng);
  Tensor x({1, 2}, 1.0f);
  Tensor g({1, 2}, 1.0f);
  GradientSet grads(lin);
  TapeEntry saved;
  lin.forward(x, nn::Mode::Eval, &saved);
  lin.backward(g, saved, grads.pointers());
  const Tensor once = grads[0];
  lin.forward(x, nn::Mode::Eval, &saved);
  lin.backward(g, saved, grads.pointers());
  const Tensor twice = grads[0];
  for (std::size_t i = 0; i < once.numel(); ++i) {
    EXPECT_FLOAT_EQ(twice[i], 2.0f * once[i]);
  }
}

// --- conv --------------------------------------------------------------

TEST(Conv2dTest, SamePaddingPreservesSpatialDims) {
  Rng rng(71);
  Conv2d conv(Conv2d::same(2, 4), rng);
  Tensor x = random_input({3, 2, 8, 8}, 72);
  Tensor y = conv.forward(x, nn::Mode::Eval);
  EXPECT_EQ(y.shape(), Shape({3, 4, 8, 8}));
}

TEST(Conv2dTest, ValidPaddingShrinksDims) {
  Rng rng(73);
  Conv2d conv(Conv2dConfig{1, 2, 3, 1, 0}, rng);
  Tensor y = conv.forward(random_input({1, 1, 6, 5}, 74), nn::Mode::Eval);
  EXPECT_EQ(y.shape(), Shape({1, 2, 4, 3}));
}

TEST(Conv2dTest, StrideTwoHalvesDims) {
  Rng rng(75);
  Conv2d conv(Conv2dConfig{1, 2, 3, 2, 1}, rng);
  Tensor y = conv.forward(random_input({1, 1, 8, 8}, 76), nn::Mode::Eval);
  EXPECT_EQ(y.shape(), Shape({1, 2, 4, 4}));
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  Rng rng(77);
  Conv2d conv(Conv2d::same(1, 1), rng);
  Tensor& w = *conv.parameters()[0];
  w.fill(0.0f);
  w[4] = 1.0f;  // center tap of the 3x3 kernel
  conv.parameters()[1]->fill(0.0f);
  Tensor x = random_input({1, 1, 5, 5}, 78);
  Tensor y = conv.forward(x, nn::Mode::Eval);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-5f);
}

TEST(Conv2dTest, KnownConvolutionValue) {
  Rng rng(79);
  Conv2d conv(Conv2dConfig{1, 1, 2, 1, 0}, rng);
  *conv.parameters()[0] = Tensor::from_data(Shape({1, 4}), {1, 1, 1, 1});
  conv.parameters()[1]->fill(0.5f);
  Tensor x = Tensor::from_data(Shape({1, 1, 2, 2}), {1, 2, 3, 4});
  Tensor y = conv.forward(x, nn::Mode::Eval);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10.5f);
}

class Conv2dGradient
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Conv2dGradient, MatchesNumericGradient) {
  const auto [in_c, out_c, stride, padding] = GetParam();
  Rng rng(81);
  Conv2d conv(Conv2dConfig{static_cast<std::size_t>(in_c),
                           static_cast<std::size_t>(out_c), 3,
                           static_cast<std::size_t>(stride),
                           static_cast<std::size_t>(padding)},
              rng);
  Tensor x = random_input({2, static_cast<std::size_t>(in_c), 7, 7}, 82);
  check_gradients(conv, x, 83);
}

INSTANTIATE_TEST_SUITE_P(Configs, Conv2dGradient,
                         ::testing::Values(std::tuple{1, 2, 1, 1},
                                           std::tuple{2, 3, 1, 0},
                                           std::tuple{3, 1, 1, 1},
                                           std::tuple{1, 4, 2, 1}));

TEST(Conv2dTest, RejectsWrongChannelCount) {
  Rng rng(84);
  Conv2d conv(Conv2d::same(3, 4), rng);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8}), nn::Mode::Eval),
               std::invalid_argument);
}

TEST(Conv2dTest, Im2ColColToImAreAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property the conv backward pass depends on.
  const std::size_t C = 2, H = 5, W = 6, K = 3, S = 1, P = 1;
  const std::size_t oh = (H + 2 * P - K) / S + 1, ow = (W + 2 * P - K) / S + 1;
  const std::size_t rows = C * K * K, cols = oh * ow;
  Rng rng(85);
  Tensor x({C, H, W});
  Tensor y({rows, cols});
  fill_normal(x, rng, 0.0f, 1.0f);
  fill_normal(y, rng, 0.0f, 1.0f);
  Tensor colx({rows, cols});
  im2col(x.data(), C, H, W, K, S, P, colx.data());
  Tensor xty({C, H, W});
  col2im(y.data(), C, H, W, K, S, P, xty.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < colx.numel(); ++i) {
    lhs += static_cast<double>(colx[i]) * y[i];
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * xty[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(Conv2dTest, RejectsDegenerateConfigsAtConstruction) {
  Rng rng(86);
  EXPECT_THROW((Conv2d(Conv2dConfig{0, 2, 3, 1, 1}, rng)),
               std::invalid_argument);
  EXPECT_THROW((Conv2d(Conv2dConfig{2, 0, 3, 1, 1}, rng)),
               std::invalid_argument);
  EXPECT_THROW((Conv2d(Conv2dConfig{1, 1, 0, 1, 0}, rng)),
               std::invalid_argument);
  EXPECT_THROW((Conv2d(Conv2dConfig{1, 1, 3, 0, 1}, rng)),
               std::invalid_argument);
}

TEST(Conv2dTest, OutputDimRejectsKernelBeyondPaddedInput) {
  // kernel > in_dim + 2*padding used to wrap the size_t subtraction into
  // a garbage output shape; it must throw instead.
  Rng rng(87);
  Conv2d conv(Conv2dConfig{1, 1, 5, 1, 0}, rng);
  EXPECT_EQ(conv.output_dim(5), 1u);
  EXPECT_THROW(conv.output_dim(3), std::invalid_argument);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 3, 3}), nn::Mode::Eval),
               std::invalid_argument);
}

// --- direct-vs-im2col bitwise identity ----------------------------------

struct DirectIdCase {
  Conv2dConfig cfg;
  Shape in;
  bool expect_direct;  // false: shape must fall back to im2col
};

class Conv2dDirectIdentity : public ::testing::TestWithParam<DirectIdCase> {};

// The contract every perf PR in this repo clears: the new path must be
// BITWISE identical to the old one, for outputs and all gradients, at
// any thread count. Two same-seeded layers (identical weights) run the
// same batch, one forced onto im2col+GEMM.
TEST_P(Conv2dDirectIdentity, ForwardAndGradientsMatchIm2colBitwise) {
  const DirectIdCase& tc = GetParam();
  Rng r1(4242), r2(4242);
  Conv2d direct(tc.cfg, r1);
  Conv2d baseline(tc.cfg, r2);
  baseline.set_force_im2col(true);
  EXPECT_EQ(direct.uses_direct(), tc.expect_direct);
  EXPECT_FALSE(baseline.uses_direct());

  // ADV_THREADS pins only the global pool, so thread-count coverage uses
  // dedicated pools (the gemm_blocked_test idiom).
  ThreadPool pool1(1), pool4(4);
  const Tensor x = random_input(tc.in, 97);
  for (ThreadPool* pool : {&pool1, &pool4}) {
    direct.set_pool(pool);
    baseline.set_pool(pool);
    TapeEntry saved_d, saved_i;
    const Tensor yd = direct.forward(x, nn::Mode::Eval, &saved_d);
    const Tensor yi = baseline.forward(x, nn::Mode::Eval, &saved_i);
    expect_bitwise_equal(yd, yi, "forward");
    const Tensor g = random_input(yd.shape(), 98);
    GradientSet grads_d(direct), grads_i(baseline);
    const Tensor dxd = direct.backward(g, saved_d, grads_d.pointers());
    const Tensor dxi = baseline.backward(g, saved_i, grads_i.pointers());
    expect_bitwise_equal(dxd, dxi, "input grad");
    expect_bitwise_equal(grads_d[0], grads_i[0], "weight grad");
    expect_bitwise_equal(grads_d[1], grads_i[1], "bias grad");
    // Fused epilogues run on whole vectors, full and tail tiles alike
    // (the im2col path applies them as a post-pass).
    for (const conv::Epilogue epi :
         {conv::Epilogue::ReLU, conv::Epilogue::Sigmoid}) {
      expect_bitwise_equal(direct.forward_fused(x, epi),
                           baseline.forward_fused(x, epi), "fused forward");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dDirectIdentity,
    ::testing::Values(
        // Every conv shape the MagNet models construct (all 3x3 "same"
        // stride-1: classifier same(1,16)/same(16,32) + ReLU, AE
        // same(c,f)/same(f,f)/same(f,c) + Sigmoid), on small spatial
        // dims for speed.
        DirectIdCase{Conv2d::same(1, 16), Shape({3, 1, 9, 9}), true},
        DirectIdCase{Conv2d::same(16, 32), Shape({2, 16, 7, 7}), true},
        DirectIdCase{Conv2d::same(1, 3), Shape({5, 1, 6, 6}), true},
        DirectIdCase{Conv2d::same(3, 3), Shape({3, 3, 8, 8}), true},
        DirectIdCase{Conv2d::same(3, 1), Shape({2, 3, 6, 6}), true},
        // The same models at full size: MNIST classifier 1->16 @28 (a
        // full tile and a 12-lane tail tile in one row) and 16->32 @14
        // (tail tiles only), CIFAR classifier 3->16 @32 and 16->32 @16
        // (full tiles only).
        DirectIdCase{Conv2d::same(1, 16), Shape({2, 1, 28, 28}), true},
        DirectIdCase{Conv2d::same(16, 32), Shape({2, 16, 14, 14}), true},
        DirectIdCase{Conv2d::same(3, 16), Shape({2, 3, 32, 32}), true},
        DirectIdCase{Conv2d::same(16, 32), Shape({2, 16, 16, 16}), true},
        // Input gradients at in_c <= MR/2 tile MR/in_c pixel rows: in_c = 3
        // at an odd height (the last tile holds one pixel row), in_c = 3
        // with a 12-lane tail tile, in_c = 1 with fewer rows than one tile.
        DirectIdCase{Conv2d::same(3, 16), Shape({2, 3, 7, 7}), true},
        DirectIdCase{Conv2d::same(3, 16), Shape({2, 3, 6, 28}), true},
        DirectIdCase{Conv2d::same(1, 16), Shape({2, 1, 4, 9}), true},
        // Wide row: exercises the full-NR vector store path (ow >= 16).
        DirectIdCase{Conv2d::same(1, 8), Shape({2, 1, 6, 20}), true},
        // in_c*k*k = 288 > KC: exercises the multi-strip accumulator.
        DirectIdCase{Conv2d::same(32, 4), Shape({1, 32, 6, 6}), true},
        // Beyond the models: even kernels, valid padding, 5x5.
        DirectIdCase{Conv2dConfig{1, 2, 2, 1, 0}, Shape({2, 1, 5, 5}), true},
        DirectIdCase{Conv2dConfig{2, 2, 2, 1, 1}, Shape({2, 2, 5, 5}), true},
        DirectIdCase{Conv2dConfig{2, 3, 3, 1, 0}, Shape({3, 2, 7, 7}), true},
        DirectIdCase{Conv2dConfig{2, 4, 5, 1, 2}, Shape({2, 2, 9, 9}), true},
        // Fallback shapes: stride 2 and padding >= kernel stay on
        // im2col+GEMM (trivially identical; asserts path selection).
        DirectIdCase{Conv2dConfig{1, 4, 3, 2, 1}, Shape({2, 1, 8, 8}), false},
        DirectIdCase{Conv2dConfig{1, 2, 3, 1, 3}, Shape({2, 1, 5, 5}),
                     false}));

TEST(Conv2dTest, FusedEpilogueMatchesSeparateActivationBitwise) {
  // forward_fused must equal conv-then-activation on BOTH paths (the
  // im2col fallback applies the epilogue as a post-pass).
  for (const bool force_im2col : {false, true}) {
    Rng r1(91), r2(91);
    Conv2d fused(Conv2d::same(2, 4), r1);
    Conv2d plain(Conv2d::same(2, 4), r2);
    fused.set_force_im2col(force_im2col);
    plain.set_force_im2col(force_im2col);
    const Tensor x = random_input({2, 2, 6, 6}, 92);
    ReLU relu;
    Sigmoid sigmoid;
    const Tensor yr = fused.forward_fused(x, conv::Epilogue::ReLU);
    const Tensor yr_ref =
        relu.forward(plain.forward(x, nn::Mode::Eval), nn::Mode::Eval);
    expect_bitwise_equal(yr, yr_ref, "relu epilogue");
    const Tensor ys = fused.forward_fused(x, conv::Epilogue::Sigmoid);
    const Tensor ys_ref =
        sigmoid.forward(plain.forward(x, nn::Mode::Eval), nn::Mode::Eval);
    expect_bitwise_equal(ys, ys_ref, "sigmoid epilogue");
  }
}

// --- pooling / upsample -------------------------------------------------

TEST(AvgPool2dTest, AveragesWindows) {
  AvgPool2d pool(2);
  Tensor x = Tensor::from_data(Shape({1, 1, 2, 2}), {1, 2, 3, 4});
  Tensor y = pool.forward(x, nn::Mode::Eval);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool2dTest, GradientCheck) {
  AvgPool2d pool(2);
  check_gradients(pool, random_input({2, 2, 4, 4}, 91), 92);
}

TEST(AvgPool2dTest, RejectsIndivisibleDims) {
  AvgPool2d pool(2);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 5, 4}), nn::Mode::Eval),
               std::invalid_argument);
}

TEST(MaxPool2dTest, TakesWindowMaximum) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from_data(Shape({1, 1, 2, 4}), {1, 5, 2, 0, 3, 4, 1, 9});
  Tensor y = pool.forward(x, nn::Mode::Eval);
  EXPECT_EQ(y.shape(), Shape({1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 9.0f);
}

TEST(MaxPool2dTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from_data(Shape({1, 1, 2, 2}), {1, 5, 2, 0});
  TapeEntry saved;
  pool.forward(x, nn::Mode::Eval, &saved);
  Tensor g({1, 1, 1, 1}, 3.0f);
  Tensor dx = pool.backward(g, saved);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 3.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
}

TEST(MaxPool2dTest, GradientCheck) {
  MaxPool2d pool(2);
  // Distinct values so the argmax is stable under the probe epsilon.
  Tensor x({1, 2, 4, 4});
  Rng rng(93);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(i % 7) + 0.3f * rng.uniform_f(0.0f, 1.0f);
  }
  check_gradients(pool, x, 94);
}

/// MaxPool2d by the textbook loop: the first strict maximum of each window
/// in (di, dj) order, starting at -inf on the window's first element.
/// Fills the output and the flat input index of each output.
void max_pool_reference(const Tensor& x, std::size_t k, Tensor& out,
                        std::vector<std::size_t>& index) {
  const std::size_t nc = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = h / k, ow = w / k;
  out = Tensor({x.dim(0), x.dim(1), oh, ow});
  index.assign(out.numel(), 0);
  for (std::size_t p = 0; p < nc; ++p) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t at = p * h * w + i * k * w + j * k;
        for (std::size_t di = 0; di < k; ++di) {
          for (std::size_t dj = 0; dj < k; ++dj) {
            const std::size_t idx = p * h * w + (i * k + di) * w + j * k + dj;
            if (x[idx] > best) {
              best = x[idx];
              at = idx;
            }
          }
        }
        out[(p * oh + i) * ow + j] = best;
        index[(p * oh + i) * ow + j] = at;
      }
    }
  }
}

/// Forward output and backward gradient of MaxPool2d(k) against
/// max_pool_reference, bit for bit.
void check_max_pool_bitwise(std::size_t k, const Tensor& x,
                            std::uint64_t seed) {
  MaxPool2d pool(k);
  Tensor want_out;
  std::vector<std::size_t> want_index;
  max_pool_reference(x, k, want_out, want_index);

  expect_bitwise_equal(pool.forward(x, nn::Mode::Eval), want_out, "forward");
  TapeEntry saved;
  expect_bitwise_equal(pool.forward(x, nn::Mode::Eval, &saved), want_out,
                       "recording forward");

  Tensor g(want_out.shape());
  Rng rng(seed);
  fill_uniform(g, rng, -1.0f, 1.0f);
  // -0 gradients: accumulating one onto zero gives +0, and backward must
  // produce the same bits.
  for (std::size_t i = 0; i < g.numel(); i += 5) g[i] = -0.0f;
  Tensor want_dx(x.shape(), 0.0f);
  for (std::size_t i = 0; i < g.numel(); ++i) want_dx[want_index[i]] += g[i];
  expect_bitwise_equal(pool.backward(g, saved), want_dx, "backward");
}

/// An input for window k: small integers (so windows tie), NaN, -inf,
/// +inf and signed zeros, plus one all-NaN and one all -inf window in
/// the second channel, away from its plane's element (0, 0).
Tensor tricky_pool_input(std::size_t k, std::uint64_t seed) {
  const std::size_t h = 2 * k, w = 3 * k;
  Tensor x({2, 2, h, w});
  const float pool_of[] = {0.0f,
                           -0.0f,
                           1.0f,
                           1.0f,
                           2.0f,
                           -1.0f,
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::infinity()};
  Rng rng(seed);
  for (float& v : x.values()) {
    v = pool_of[rng.next_u64() % (sizeof(pool_of) / sizeof(float))];
  }
  for (std::size_t di = 0; di < k; ++di) {
    for (std::size_t dj = 0; dj < k; ++dj) {
      x.at(0, 1, di, k + dj) = std::numeric_limits<float>::quiet_NaN();
      x.at(0, 1, k + di, 2 * k + dj) =
          -std::numeric_limits<float>::infinity();
    }
  }
  return x;
}

TEST(MaxPool2dTest, Window2MatchesScalarReferenceBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    check_max_pool_bitwise(2, tricky_pool_input(2, seed), seed + 100);
  }
}

TEST(MaxPool2dTest, GeneralWindowMatchesScalarReferenceBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    check_max_pool_bitwise(3, tricky_pool_input(3, seed), seed + 200);
  }
}

// A window that nothing beats (all NaN, or all -inf) pools to -inf at its
// own first element, so backward keeps that output's gradient inside it.
TEST(MaxPool2dTest, UnbeatableWindowRoutesToItsFirstElement) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}}) {
    SCOPED_TRACE(k);
    for (const float fill : {nan, ninf}) {
      MaxPool2d pool(k);
      Tensor x({1, 2, k, 2 * k}, 5.0f);
      for (std::size_t di = 0; di < k; ++di) {
        for (std::size_t dj = 0; dj < k; ++dj) x.at(0, 1, di, k + dj) = fill;
      }
      TapeEntry saved;
      const Tensor y = pool.forward(x, nn::Mode::Eval, &saved);
      EXPECT_EQ(y[3], ninf);
      const std::size_t first = k * 2 * k + k;  // plane 1, column k
      Tensor g({1, 2, 1, 2}, 0.0f);
      g[3] = 7.0f;
      const Tensor dx = pool.backward(g, saved);
      EXPECT_EQ(dx[first], 7.0f);
      EXPECT_EQ(dx[k * 2 * k], 0.0f);  // plane 1's (0, 0), outside the window
    }
  }
}

/// MaxPool2d::backward_through_relu against ReLU then MaxPool2d run as two
/// layers, bit for bit, over both entries a ReLU can leave: its input x
/// (a standalone ReLU) and its output relu(x) (a conv that fused it). The
/// pool's part is the textbook scatter over max_pool_reference's index.
void check_relu_pool_bitwise(std::size_t k, const Tensor& x,
                             std::uint64_t seed) {
  ReLU relu;
  MaxPool2d pool(k);
  TapeEntry pre;
  const Tensor y = relu.forward(x, nn::Mode::Eval, &pre);
  Tensor out;
  std::vector<std::size_t> index;
  max_pool_reference(y, k, out, index);
  Tensor g(out.shape());
  Rng rng(seed);
  fill_uniform(g, rng, -1.0f, 1.0f);
  for (std::size_t i = 0; i < g.numel(); i += 3) g[i] = -0.0f;
  const TapeEntry post{y, {}};
  Tensor dpool(y.shape(), 0.0f);
  for (std::size_t i = 0; i < g.numel(); ++i) dpool[index[i]] += g[i];
  expect_bitwise_equal(pool.backward_through_relu(g, pre),
                       relu.backward(dpool, pre), "pre-activation entry");
  expect_bitwise_equal(pool.backward_through_relu(g, post),
                       relu.backward(dpool, post), "post-activation entry");
}

TEST(MaxPool2dTest, BackwardThroughReluMatchesTheTwoLayersBitwise) {
  // Window 2 on the models' plane widths (windows per row: 16 and 8 on
  // CIFAR, 14 and 7 on MNIST), so full vector chunks and padded row tails
  // both run; window 3 on the scalar path.
  for (const auto& [k, w] : {std::pair<std::size_t, std::size_t>{2, 32},
                             {2, 16},
                             {2, 28},
                             {2, 14},
                             {3, 6},
                             {3, 9}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "window " << k << " width " << w
                                        << " seed " << seed);
      // tricky_pool_input's values (NaN, +-inf, +-0, ties, an all-NaN and
      // an all -inf window), tiled across the width.
      const Tensor base = tricky_pool_input(k, seed);
      Tensor x({2, 2, 2 * k, w});
      for (std::size_t i = 0; i < x.numel(); ++i) {
        const std::size_t col = i % w, row = i / w;
        x[i] = base[row * 3 * k + col % (3 * k)];
      }
      check_relu_pool_bitwise(k, x, seed + 300);
    }
  }
}

// The last window row ends exactly where its allocation does, so a vector
// tail that loads or stores past a row fails under AddressSanitizer.
TEST(MaxPool2dTest, BackwardStaysInsideTightAllocations) {
  for (const Shape& shape : {Shape({1, 1, 2, 14}), Shape({1, 1, 2, 2})}) {
    SCOPED_TRACE(shape.to_string());
    const Tensor x = random_input(shape, 310);
    check_max_pool_bitwise(2, x, 311);
    check_relu_pool_bitwise(2, x, 312);
  }
}

TEST(Upsample2dTest, RepeatsPixels) {
  Upsample2d up(2);
  Tensor x = Tensor::from_data(Shape({1, 1, 1, 2}), {1, 2});
  Tensor y = up.forward(x, nn::Mode::Eval);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 4}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 2), 2.0f);
}

TEST(Upsample2dTest, GradientCheck) {
  Upsample2d up(2);
  check_gradients(up, random_input({2, 2, 3, 3}, 95), 96);
}

TEST(PoolUpsampleTest, UpsampleUndoesAvgPoolOnConstantImages) {
  AvgPool2d pool(2);
  Upsample2d up(2);
  Tensor x({1, 1, 4, 4}, 3.7f);
  Tensor y = up.forward(pool.forward(x, nn::Mode::Eval), nn::Mode::Eval);
  ASSERT_EQ(y.shape(), x.shape());
  for (float v : y.values()) EXPECT_FLOAT_EQ(v, 3.7f);
}

// --- structural ---------------------------------------------------------

TEST(FlattenTest, CollapsesTrailingDims) {
  Flatten f;
  Tensor x({2, 3, 4, 5});
  TapeEntry saved;
  Tensor y = f.forward(x, nn::Mode::Eval, &saved);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  Tensor dx = f.backward(Tensor({2, 60}, 1.0f), saved);
  EXPECT_EQ(dx.shape(), x.shape());
}

// --- softmax -------------------------------------------------------------

TEST(SoftmaxTest, RowsSumToOne) {
  Tensor logits = random_input({5, 10}, 99, -5.0f, 5.0f);
  Tensor p = softmax_rows(logits);
  for (std::size_t r = 0; r < 5; ++r) {
    double s = 0.0;
    for (std::size_t k = 0; k < 10; ++k) s += p[r * 10 + k];
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, TemperatureFlattensDistribution) {
  Tensor logits = Tensor::from_data(Shape({1, 3}), {0.0f, 1.0f, 5.0f});
  Tensor sharp = softmax_rows(logits, 1.0f);
  Tensor flat = softmax_rows(logits, 40.0f);
  EXPECT_GT(sharp[2], flat[2]);
  EXPECT_LT(sharp[0], flat[0]);
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  Tensor logits = Tensor::from_data(Shape({1, 2}), {1000.0f, 1001.0f});
  Tensor p = softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
  EXPECT_GT(p[1], p[0]);
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor logits = random_input({3, 6}, 100, -3.0f, 3.0f);
  Tensor p = softmax_rows(logits);
  Tensor lp = log_softmax_rows(logits);
  for (std::size_t i = 0; i < p.numel(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-4f);
  }
}

TEST(SoftmaxTest, InvalidInputsThrow) {
  EXPECT_THROW(softmax_rows(Tensor({5})), std::invalid_argument);
  EXPECT_THROW(softmax_rows(Tensor({2, 3}), 0.0f), std::invalid_argument);
  EXPECT_THROW(log_softmax_rows(Tensor({5})), std::invalid_argument);
}

}  // namespace
}  // namespace adv::nn
