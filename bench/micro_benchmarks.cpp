// Micro benchmarks (google-benchmark): throughput of the substrate
// operations that dominate experiment wall-clock — GEMM, conv forward and
// backward, MaxPool2d forward and ReLU backward, auto-encoder inference,
// detector scoring, and single ISTA / plain-GD attack steps (the paper's
// eq. (4) loop body).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "attacks/deepfool.hpp"
#include "attacks/ead.hpp"
#include "attacks/target.hpp"
#include "core/model_zoo.hpp"
#include "magnet/autoencoder.hpp"
#include "magnet/detector.hpp"
#include "magnet/pipeline.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/structural.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace adv;

void BM_TensorAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Tensor a({n}, 1.0f), b({n}, 2.0f);
  for (auto _ : state) {
    axpy_inplace(a, 0.5f, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TensorAxpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c;
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

/// Conv-shaped (tall-skinny) GEMMs: the im2col products behind Conv2d
/// forward (M=out_ch, K=in_ch*k^2, N=H*W) and its two backward products.
void BM_GemmConvShape(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  Tensor a({m, k}), b({k, n}), c;
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(m * k * n));
}
BENCHMARK(BM_GemmConvShape)
    ->Args({32, 144, 12544})   // conv fwd: 16ch 3x3 -> 32ch, 64 x 14x14 imgs
    ->Args({32, 12544, 144})   // conv dW: grad_out x col^T
    ->Args({144, 32, 12544});  // conv dX: W^T x grad_out

void BM_ConvForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2d conv(nn::Conv2d::same(16, 32), rng);
  Tensor x({8, 16, 14, 14});
  fill_uniform(x, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x, nn::Mode::Eval);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(nn::Conv2d::same(16, 32), rng);
  Tensor x({8, 16, 14, 14});
  fill_uniform(x, rng, 0.0f, 1.0f);
  Tensor g({8, 32, 14, 14});
  fill_uniform(g, rng, -1.0f, 1.0f);
  nn::TapeEntry saved;
  nn::GradientSet grads(conv);
  conv.forward(x, nn::Mode::Eval, &saved);
  for (auto _ : state) {
    grads.zero();
    Tensor dx = conv.backward(g, saved, grads.pointers());
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvBackward);

// The element-wise layers at craft's CIFAR row-block shape (15 images of a
// 16-channel 32x32 activation): MaxPool2d forward recording its argmax on
// a ReLU'd input, and ReLU backward over normal pre-activations. Each call
// allocates its zero-filled output, as in nn::Sequential's passes, so the
// timings include that allocation.
void BM_MaxPool2dForward(benchmark::State& state) {
  const nn::MaxPool2d pool(2);
  Rng rng(4);
  Tensor x({15, 16, 32, 32});
  fill_normal(x, rng, 0.0f, 1.0f);
  for (float& v : x.values()) v = std::max(v, 0.0f);
  nn::TapeEntry saved;
  for (auto _ : state) {
    Tensor y = pool.forward(x, nn::Mode::Eval, &saved);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_MaxPool2dForward);

// MaxPool2d backward routing a normal gradient through the argmax its
// recording forward took on the same ReLU'd input.
void BM_MaxPool2dBackward(benchmark::State& state) {
  const nn::MaxPool2d pool(2);
  Rng rng(6);
  Tensor x({15, 16, 32, 32});
  fill_normal(x, rng, 0.0f, 1.0f);
  for (float& v : x.values()) v = std::max(v, 0.0f);
  nn::TapeEntry saved;
  const Tensor y = pool.forward(x, nn::Mode::Eval, &saved);
  Tensor g(y.shape());
  fill_normal(g, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor dx = pool.backward(g, saved);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_MaxPool2dBackward);

void BM_ReLUBackward(benchmark::State& state) {
  const nn::ReLU relu;
  Rng rng(5);
  Tensor x({15, 16, 32, 32}), g({15, 16, 32, 32});
  fill_normal(x, rng, 0.0f, 1.0f);
  fill_normal(g, rng, 0.0f, 1.0f);
  nn::TapeEntry saved;
  relu.forward(x, nn::Mode::Eval, &saved);
  for (auto _ : state) {
    Tensor dx = relu.backward(g, saved);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_ReLUBackward);

// The paired ReLU + MaxPool2d backward the classifier blocks run (one
// pass over the ReLU's entry), at the same CIFAR row-block shape.
void BM_ReLUMaxPool2dBackward(benchmark::State& state) {
  const nn::MaxPool2d pool(2);
  Rng rng(7);
  Tensor x({15, 16, 32, 32});
  fill_normal(x, rng, 0.0f, 1.0f);
  nn::TapeEntry relu_saved{x, {}};
  Tensor g({15, 16, 16, 16});
  fill_normal(g, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor dx = pool.backward_through_relu(g, relu_saved);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.numel()));
}
BENCHMARK(BM_ReLUMaxPool2dBackward);

nn::Sequential small_classifier(Rng& rng) {
  nn::Sequential m;
  m.emplace<nn::Conv2d>(nn::Conv2d::same(1, 16), rng);
  m.emplace<nn::ReLU>();
  m.emplace<nn::MaxPool2d>(2);
  m.emplace<nn::Flatten>();
  m.emplace<nn::Linear>(16 * 14 * 14, 10, rng);
  return m;
}

void BM_AutoencoderForward(benchmark::State& state) {
  Rng rng(4);
  magnet::AutoencoderConfig cfg;
  cfg.filters = static_cast<std::size_t>(state.range(0));
  nn::Sequential ae = magnet::build_autoencoder(cfg, rng);
  Tensor x({16, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = ae.forward(x, nn::Mode::Eval);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AutoencoderForward)->Arg(3)->Arg(12);

void BM_DetectorScoring(benchmark::State& state) {
  Rng rng(5);
  magnet::AutoencoderConfig cfg;
  auto ae = std::make_shared<nn::Sequential>(magnet::build_autoencoder(cfg, rng));
  magnet::ReconstructionDetector det(ae, 2);
  Tensor x({32, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    auto s = det.scores(x);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_DetectorScoring);

/// One defended classify() of 8 CIFAR rows per iteration, through a
/// random-weight pipeline with the CIFAR default layout: recon L1/L2 and
/// JSD T10/T40 detectors plus the reformer on one auto-encoder. Each
/// scheme also records bench/pipeline_classify/<scheme>, so
/// BENCH_layers.json carries the per-scheme cost next to the
/// magnet/stage/* timers.
void BM_PipelineClassify(benchmark::State& state, magnet::DefenseScheme scheme,
                         const char* slug) {
  Rng rng(9);
  auto clf = std::make_shared<nn::Sequential>(
      core::build_classifier(core::DatasetId::Cifar, 32, rng));
  magnet::AutoencoderConfig ac;
  ac.arch = magnet::AeArch::Cifar;
  ac.image_channels = 3;
  auto ae =
      std::make_shared<nn::Sequential>(magnet::build_autoencoder(ac, rng));
  magnet::MagNetPipeline pipe(clf);
  pipe.add_detector(std::make_shared<magnet::ReconstructionDetector>(ae, 1));
  pipe.add_detector(std::make_shared<magnet::ReconstructionDetector>(ae, 2));
  pipe.add_detector(std::make_shared<magnet::JsdDetector>(ae, clf, 10.0f));
  pipe.add_detector(std::make_shared<magnet::JsdDetector>(ae, clf, 40.0f));
  pipe.set_reformer(std::make_shared<magnet::Reformer>(ae));
  Tensor calib({32, 3, 32, 32});
  fill_uniform(calib, rng, 0.0f, 1.0f);
  pipe.calibrate(calib, 0.5f);
  Tensor x({8, 3, 32, 32});
  fill_uniform(x, rng, 0.0f, 1.0f);
  obs::Timer* timer =
      obs::enabled() ? &obs::MetricsRegistry::global().timer(
                           std::string("bench/pipeline_classify/") + slug)
                     : nullptr;
  for (auto _ : state) {
    obs::ScopedTimer t(timer);
    magnet::DefenseOutcome out = pipe.classify(x, scheme);
    benchmark::DoNotOptimize(out.predicted.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK_CAPTURE(BM_PipelineClassify, full, magnet::DefenseScheme::Full,
                  "full");
BENCHMARK_CAPTURE(BM_PipelineClassify, detector_only,
                  magnet::DefenseScheme::DetectorOnly, "detector_only");
BENCHMARK_CAPTURE(BM_PipelineClassify, reformer_only,
                  magnet::DefenseScheme::ReformerOnly, "reformer_only");
BENCHMARK_CAPTURE(BM_PipelineClassify, none, magnet::DefenseScheme::None,
                  "none");

/// One ISTA iteration of EAD (forward + hinge gradient + shrink) vs the
/// beta = 0 special case — the ablation of the paper's eq. (4) step cost.
void BM_AttackStep(benchmark::State& state) {
  const float beta = static_cast<float>(state.range(0)) * 1e-2f;
  Rng rng(6);
  nn::Sequential m = small_classifier(rng);
  Tensor x0({16, 1, 28, 28});
  fill_uniform(x0, rng, 0.0f, 1.0f);
  std::vector<int> labels(16, 0);
  std::vector<float> c(16, 1.0f);
  attacks::ObliviousTarget target(m);
  Tensor x = x0;
  Tensor shrunk;
  for (auto _ : state) {
    const attacks::HingeEval eval =
        attacks::eval_untargeted_hinge(target, x, labels, 10.0f);
    Tensor grad =
        attacks::hinge_input_gradient(target, x, eval, labels, 10.0f, c);
    axpy_inplace(x, -0.01f, grad);
    attacks::shrink_project(x, x0, beta, shrunk);
    std::swap(x, shrunk);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_AttackStep)->Arg(0)->Arg(1)->Arg(10);

void BM_ShrinkProject(benchmark::State& state) {
  Rng rng(7);
  Tensor z({64, 1, 28, 28}), x0({64, 1, 28, 28}), out;
  fill_uniform(z, rng, -0.2f, 1.2f);
  fill_uniform(x0, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    attacks::shrink_project(z, x0, 0.05f, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(z.numel()));
}
BENCHMARK(BM_ShrinkProject);

/// Times one GEMM shape (best of `reps` runs after one warmup) and
/// returns achieved GFLOP/s.
double gemm_gflops(std::size_t m, std::size_t k, std::size_t n, int reps) {
  Rng rng(1);
  Tensor a({m, k}), b({k, n}), c;
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  gemm(a, b, c);  // warmup: touches pages, spins up the pool
  double best_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    gemm(a, b, c);
    const auto t1 = std::chrono::steady_clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  benchmark::DoNotOptimize(c.data());
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n) / best_s / 1e9;
}

/// Machine-readable GEMM perf snapshot so later changes can track the
/// trajectory: square and conv-shaped cases, GFLOP/s, to BENCH_gemm.json
/// in the working directory.
void write_gemm_json(const char* path) {
  struct Case {
    const char* name;
    std::size_t m, k, n;
  };
  const Case cases[] = {
      {"square_256", 256, 256, 256},    {"square_512", 512, 512, 512},
      {"square_1024", 1024, 1024, 1024}, {"conv_fwd", 32, 144, 12544},
      {"conv_dw", 32, 12544, 144},      {"conv_dx", 144, 32, 12544},
  };
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"unit\": \"GFLOP/s\",\n  \"threads\": %zu,\n"
               "  \"cases\": [\n",
               ThreadPool::global().thread_count());
  bool first = true;
  for (const Case& c : cases) {
    const double gflops = gemm_gflops(c.m, c.k, c.n, 3);
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"m\": %zu, \"k\": %zu, "
                 "\"n\": %zu, \"gflops\": %.2f}",
                 first ? "" : ",\n", c.name, c.m, c.k, c.n, gflops);
    std::printf("BENCH_gemm %-12s %4zux%5zux%5zu  %7.2f GFLOP/s\n", c.name,
                c.m, c.k, c.n, gflops);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// Reports one gate of the A/Bs below: an "ok:" line on stdout, or a
/// "FAIL:" line on stderr, which makes main exit non-zero.
bool gate(bool ok, const char* what, double reading, const char* bound) {
  std::fprintf(ok ? stdout : stderr, "%s: %s = %.2f (gate: %s)\n",
               ok ? "ok" : "FAIL", what, reading, bound);
  return ok;
}

/// Per-shape direct-vs-im2col conv A/B over the MagNet model shapes.
/// Each case times forward and backward on both paths (best of `reps`
/// after warmup) and checks bitwise identity of the forward output, the
/// input gradient and the weight/bias gradients. Writes per-case times,
/// speedups and identity flags plus the aggregate "identity" and
/// "min_same3x3_fwd_speedup" fields to BENCH_conv.json. Gates: identity
/// == 1 and min_same3x3_fwd_speedup >= 2; returns false when one fails.
bool write_conv_json(const char* path) {
  struct Case {
    const char* name;
    nn::Conv2dConfig cfg;
    std::size_t batch, hw;
    // 3x3 "same" conv of the MagNet defense stack (autoencoder I/II,
    // filters 3 and 12): these are the shapes the >= 2x gate covers. The
    // clf_* cases are the attacked classifier's convs, reported for
    // information (identity-gated, but not speed-gated: their direct
    // path already runs near GEMM peak, so the headroom over im2col is
    // structurally smaller). The two first-layer shapes (1->16 @28 MNIST,
    // 3->16 @32 CIFAR) report the row-tiled input gradient's speedup.
    bool magnet_same3x3;
  };
  const Case cases[] = {
      {"ae_in_1to3_28", nn::Conv2d::same(1, 3), 16, 28, true},
      {"ae_hidden_3to3_28", nn::Conv2d::same(3, 3), 16, 28, true},
      {"ae_out_3to1_28", nn::Conv2d::same(3, 1), 16, 28, true},
      {"ae_hidden_12to12_28", nn::Conv2d::same(12, 12), 16, 28, true},
      {"clf_1to16_28", nn::Conv2d::same(1, 16), 16, 28, false},
      {"clf_3to16_32", nn::Conv2d::same(3, 16), 16, 32, false},
      {"clf_16to32_14", nn::Conv2d::same(16, 32), 8, 14, false},
  };
  constexpr int kReps = 7;

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
    return true;
  }
  std::fprintf(f, "{\n  \"unit\": \"ms\",\n  \"threads\": %zu,\n",
               ThreadPool::global().thread_count());

  // Path-split counters over THIS A/B (delta, not process totals): every
  // direct-layer forward below bumps conv/direct_hits, every forced
  // fallback bumps conv/im2col_fallback — so both being > 0 certifies the
  // A/B really exercised both paths. Zero when obs is pinned off.
  const auto conv_counter = [](const char* key) {
    return obs::enabled()
               ? obs::MetricsRegistry::global().counter(key).value()
               : 0;
  };
  const std::uint64_t direct_hits0 = conv_counter("conv/direct_hits");
  const std::uint64_t im2col0 = conv_counter("conv/im2col_fallback");

  bool all_identical = true;
  double min_same3x3_fwd = 1e30;
  std::string rows;
  for (const Case& c : cases) {
    Rng wrng(11);
    nn::Conv2d direct(c.cfg, wrng);
    Rng wrng2(11);
    nn::Conv2d fallback(c.cfg, wrng2);
    fallback.set_force_im2col(true);

    Rng rng(12);
    Tensor x({c.batch, c.cfg.in_channels, c.hw, c.hw});
    fill_uniform(x, rng, 0.0f, 1.0f);
    const std::size_t od = direct.output_dim(c.hw);
    Tensor g({c.batch, c.cfg.out_channels, od, od});
    fill_uniform(g, rng, -1.0f, 1.0f);

    auto best_ms = [&](auto&& fn) {
      fn();  // warmup: pages, pool spin-up, packed-weight scratch
      double best_s = 1e30;
      for (int r = 0; r < kReps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best_s =
            std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
      }
      return best_s * 1e3;
    };

    const double fwd_d = best_ms([&] {
      Tensor y = direct.forward(x, nn::Mode::Infer);
      benchmark::DoNotOptimize(y.data());
    });
    const double fwd_i = best_ms([&] {
      Tensor y = fallback.forward(x, nn::Mode::Infer);
      benchmark::DoNotOptimize(y.data());
    });
    nn::TapeEntry saved_d, saved_i;
    nn::GradientSet grads_d(direct), grads_i(fallback);
    direct.forward(x, nn::Mode::Eval, &saved_d);
    fallback.forward(x, nn::Mode::Eval, &saved_i);
    const double bwd_d = best_ms([&] {
      grads_d.zero();
      Tensor dx = direct.backward(g, saved_d, grads_d.pointers());
      benchmark::DoNotOptimize(dx.data());
    });
    const double bwd_i = best_ms([&] {
      grads_i.zero();
      Tensor dx = fallback.backward(g, saved_i, grads_i.pointers());
      benchmark::DoNotOptimize(dx.data());
    });

    // Bitwise identity across the whole layer contract.
    bool same = true;
    {
      const Tensor yd = direct.forward(x, nn::Mode::Eval, &saved_d);
      const Tensor yi = fallback.forward(x, nn::Mode::Eval, &saved_i);
      same &= std::memcmp(yd.data(), yi.data(),
                          yd.numel() * sizeof(float)) == 0;
      grads_d.zero();
      grads_i.zero();
      const Tensor dxd = direct.backward(g, saved_d, grads_d.pointers());
      const Tensor dxi = fallback.backward(g, saved_i, grads_i.pointers());
      same &= std::memcmp(dxd.data(), dxi.data(),
                          dxd.numel() * sizeof(float)) == 0;
      for (std::size_t p = 0; p < grads_d.size(); ++p) {
        same &= std::memcmp(grads_d[p].data(), grads_i[p].data(),
                            grads_d[p].numel() * sizeof(float)) == 0;
      }
    }
    all_identical &= same;

    const double fwd_speedup = fwd_i / fwd_d;
    const double bwd_speedup = bwd_i / bwd_d;
    if (c.magnet_same3x3) {
      min_same3x3_fwd = std::min(min_same3x3_fwd, fwd_speedup);
    }

    char row[512];
    std::snprintf(
        row, sizeof(row),
        "%s    {\"name\": \"%s\", \"magnet_same3x3\": %d, \"identity\": %d,\n"
        "     \"fwd_ms_direct\": %.4f, \"fwd_ms_im2col\": %.4f, "
        "\"fwd_speedup\": %.2f,\n"
        "     \"bwd_ms_direct\": %.4f, \"bwd_ms_im2col\": %.4f, "
        "\"bwd_speedup\": %.2f}",
        rows.empty() ? "" : ",\n", c.name, c.magnet_same3x3 ? 1 : 0,
        same ? 1 : 0, fwd_d, fwd_i, fwd_speedup, bwd_d, bwd_i, bwd_speedup);
    rows += row;
    std::printf(
        "BENCH_conv %-18s fwd %.2fx (%.3f -> %.3f ms)  bwd %.2fx  "
        "identity %d\n",
        c.name, fwd_speedup, fwd_i, fwd_d, bwd_speedup, same ? 1 : 0);
  }
  const std::uint64_t direct_hits =
      conv_counter("conv/direct_hits") - direct_hits0;
  const std::uint64_t im2col_fallback =
      conv_counter("conv/im2col_fallback") - im2col0;
  std::fprintf(f,
               "  \"identity\": %d,\n"
               "  \"min_same3x3_fwd_speedup\": %.2f,\n"
               "  \"counters\": {\"conv/direct_hits\": %llu, "
               "\"conv/im2col_fallback\": %llu},\n"
               "  \"cases\": [\n%s\n  ]\n}\n",
               all_identical ? 1 : 0, min_same3x3_fwd,
               static_cast<unsigned long long>(direct_hits),
               static_cast<unsigned long long>(im2col_fallback),
               rows.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path);
  const bool identity_ok =
      gate(all_identical, "direct conv identity with im2col (all shapes)",
           all_identical ? 1.0 : 0.0, "== 1");
  const bool speed_ok =
      gate(min_same3x3_fwd >= 2.0, "min_same3x3_fwd_speedup",
           min_same3x3_fwd, ">= 2");
  return identity_ok && speed_ok;
}

/// Forwarding attack target that adds up, over every forward and
/// backward, the rows the active-set engine left out of the pass: the
/// engine's passes_saved, counted without adv::obs.
class SkippedRowCounter final : public attacks::AttackTarget {
 public:
  SkippedRowCounter(attacks::AttackTarget& inner, std::size_t rows)
      : inner_(inner), rows_(rows) {}

  attacks::ThreatModel threat_model() const override {
    return inner_.threat_model();
  }
  std::string tag_suffix() const override { return inner_.tag_suffix(); }
  Tensor logits(const Tensor& batch, nn::Mode mode) override {
    skipped += rows_ - batch.dim(0);
    return inner_.logits(batch, mode);
  }
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override {
    skipped += rows_ - batch.dim(0);
    return inner_.input_grad(batch, upstream);
  }

  std::uint64_t skipped = 0;

 private:
  attacks::AttackTarget& inner_;
  std::size_t rows_;
};

/// End-to-end attack-engine run over a synthetic MNIST-like batch. First
/// DeepFool, through a SkippedRowCounter: rows leave its active set once
/// fooled, and the rows its passes skipped are the engine's passes_saved.
/// Then one timed EAD run at the paper's configuration (plain ISTA,
/// kappa = 15, the high-confidence setting; the DeepFool run has already
/// warmed the pool and pages). Writes images/sec and passes_saved to
/// BENCH_attack_engine.json. Gate: DeepFool's passes_saved per run ==
/// kExpectedPassesSaved, the retirement schedule of this fixed input,
/// which is thread-count invariant; with adv::obs on, the engine's own
/// "attack/deepfool/passes_saved" counter must agree. The EAD timing has
/// no gate. Returns false when a gate fails.
bool write_attack_engine_json(const char* path) {
  constexpr std::size_t kImages = 32;
  constexpr std::uint64_t kExpectedPassesSaved = 2814;
  Rng rng(9);
  Tensor x({kImages, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);

  Rng mrng(10);
  nn::Sequential m = small_classifier(mrng);
  // Scale the head so kappa = 15 is reachable for EAD.
  scale_inplace(*m.parameters()[2], 6.0f);
  const Tensor logits = m.forward(x, nn::Mode::Infer);
  std::vector<int> labels(kImages);
  for (std::size_t i = 0; i < kImages; ++i) {
    labels[i] = static_cast<int>(argmax_row(logits, i));
  }

  attacks::ObliviousTarget target(m);
  SkippedRowCounter counted(target, kImages);
  auto recorded_saved = [] {
    return obs::MetricsRegistry::global()
        .counter("attack/deepfool/passes_saved")
        .value();
  };
  const std::uint64_t saved0 = obs::enabled() ? recorded_saved() : 0;
  const attacks::AttackResult fooled =
      attacks::deepfool_attack(counted, x, labels, attacks::DeepFoolConfig{});
  benchmark::DoNotOptimize(fooled.adversarial.data());
  const std::uint64_t passes_saved = counted.skipped;
  bool ok = gate(passes_saved == kExpectedPassesSaved,
                 "attack engine deepfool passes_saved per run",
                 static_cast<double>(passes_saved),
                 ("== " + std::to_string(kExpectedPassesSaved)).c_str());
  if (obs::enabled()) {
    const std::uint64_t recorded = recorded_saved() - saved0;
    ok &= gate(recorded == passes_saved,
               "attack/deepfool/passes_saved counter over the run",
               static_cast<double>(recorded), "== rows the target skipped");
  }

  attacks::EadConfig cfg;
  cfg.beta = 1e-2f;
  cfg.kappa = 15.0f;
  cfg.iterations = 100;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 1.0f;
  cfg.learning_rate = 0.2f;
  const auto t0 = std::chrono::steady_clock::now();
  const attacks::AttackResult r = attacks::ead_attack(m, x, labels, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(r.adversarial.data());
  const double ips = static_cast<double>(kImages) /
                     std::chrono::duration<double>(t1 - t0).count();

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
    return ok;
  }
  std::fprintf(f,
               "{\n"
               "  \"attack\": \"ead\",\n  \"kappa\": %.0f,\n"
               "  \"images\": %zu,\n  \"threads\": %zu,\n"
               "  \"images_per_sec\": %.3f,\n"
               "  \"deepfool_passes_saved\": %llu\n}\n",
               static_cast<double>(cfg.kappa), kImages,
               ThreadPool::global().thread_count(), ips,
               static_cast<unsigned long long>(passes_saved));
  std::fclose(f);
  std::printf("BENCH_attack_engine ead k=%.0f  %.2f img/s; deepfool saved "
              "%llu passes\n",
              static_cast<double>(cfg.kappa), ips,
              static_cast<unsigned long long>(passes_saved));
  std::printf("wrote %s\n", path);
  return ok;
}

/// Drives a few instrumented forward/backward passes of the small
/// classifier so BENCH_layers.json carries per-layer timings even when the
/// benchmark filter skips the model-level cases. No-op when adv::obs is
/// pinned off via ADV_OBS=0.
void emit_layer_metrics(const char* path) {
  if (!obs::enabled()) return;
  Rng rng(8);
  nn::Sequential m = small_classifier(rng);
  Tensor x({8, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);
  Tensor g({8, 10});
  fill_uniform(g, rng, -1.0f, 1.0f);
  nn::Tape tape;
  for (int i = 0; i < 3; ++i) {
    m.forward(x, nn::Mode::Eval, &tape);
    m.backward(g, tape);
  }
  // Per-layer timings plus the conv path metrics (per-shape
  // conv/<shape>/{direct,im2col} timers and the direct_hits /
  // im2col_fallback counters) in one dump, with the magnet/stage/* and
  // bench/pipeline_classify/* timers when BM_PipelineClassify ran.
  auto samples = obs::MetricsRegistry::global().snapshot("conv/");
  for (const char* prefix :
       {"layer/", "magnet/stage/", "bench/pipeline_classify/"}) {
    const auto more = obs::MetricsRegistry::global().snapshot(prefix);
    samples.insert(samples.end(), more.begin(), more.end());
  }
  const std::string json = obs::samples_to_json(samples);
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Benchmarks measure the instrumented production paths; ADV_OBS=0 in the
  // environment pins observation off for overhead A/B runs.
  if (!adv::obs::enabled_pinned_by_env()) adv::obs::set_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_gemm_json("BENCH_gemm.json");
  // Every A/B runs and writes its artifact before the verdict, so one
  // failed gate still leaves the others' readings behind.
  const bool conv_ok = write_conv_json("BENCH_conv.json");
  const bool engine_ok = write_attack_engine_json("BENCH_attack_engine.json");
  emit_layer_metrics("BENCH_layers.json");
  return conv_ok && engine_ok ? 0 : 1;
}
