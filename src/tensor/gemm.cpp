#include "tensor/gemm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/thread_pool.hpp"
#include "tensor/tile_row.hpp"

namespace adv {
namespace {

using gemm_blocking::KC;
using gemm_blocking::MC;
using gemm_blocking::MR;
using gemm_blocking::NR;

// Below this many multiply-adds the pool handoff costs more than it saves.
constexpr std::size_t kParallelMinWork = 64 * 1024;

void check_rank2(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string("gemm: ") + name +
                                " must be rank 2, got " + t.shape_string());
  }
}

// A row-major operand, optionally transposed: logical (i, j) reads
// data[j * ld + i] when trans is set. Packing absorbs the transpose, so
// the compute kernels below never see strided operands.
struct OperandView {
  const float* data;
  std::size_t ld;
  bool trans;
};

// Packs rows [r0, r0 + rows) x cols [pc, pc + kc) of A into MR-row panels:
// panel t holds rows r0 + t*MR .. +MR, laid out k-major (out[p*MR + i]),
// zero-padded to a full MR so edge tiles run the same microkernel.
void pack_a(const OperandView& a, std::size_t r0, std::size_t rows,
            std::size_t pc, std::size_t kc, float* out) {
  for (std::size_t ir = 0; ir < rows; ir += MR) {
    const std::size_t mr = std::min(MR, rows - ir);
    float* panel = out + (ir / MR) * (MR * kc);
    if (a.trans) {
      // a stored [K, M]: logical column p is a contiguous storage row.
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = a.data + (pc + p) * a.ld + r0 + ir;
        float* dst = panel + p * MR;
        for (std::size_t i = 0; i < mr; ++i) dst[i] = src[i];
        for (std::size_t i = mr; i < MR; ++i) dst[i] = 0.0f;
      }
    } else {
      for (std::size_t i = 0; i < mr; ++i) {
        const float* src = a.data + (r0 + ir + i) * a.ld + pc;
        for (std::size_t p = 0; p < kc; ++p) panel[p * MR + i] = src[p];
      }
      for (std::size_t i = mr; i < MR; ++i) {
        for (std::size_t p = 0; p < kc; ++p) panel[p * MR + i] = 0.0f;
      }
    }
  }
}

// Packs the whole of B into KC-strip / NR-panel layout: strip kb covers
// k-rows [kb*KC, kb*KC + kc); within a strip, panel jp holds columns
// jp*NR .. +NR laid out k-major (out[p*NR + j]), zero-padded to NR.
// Strip kb starts at kb * KC * npanels * NR (only the last strip is
// short, so earlier offsets are exact).
void pack_b(const OperandView& b, std::size_t k, std::size_t n, float* out) {
  const std::size_t npanels = (n + NR - 1) / NR;
  for (std::size_t pc = 0, kb = 0; pc < k; pc += KC, ++kb) {
    const std::size_t kc = std::min(KC, k - pc);
    float* strip = out + kb * KC * npanels * NR;
    for (std::size_t jp = 0; jp < npanels; ++jp) {
      const std::size_t j0 = jp * NR;
      const std::size_t nr = std::min(NR, n - j0);
      float* panel = strip + jp * (kc * NR);
      if (b.trans) {
        // b stored [N, K]: logical column j is a contiguous storage row.
        for (std::size_t j = 0; j < nr; ++j) {
          const float* src = b.data + (j0 + j) * b.ld + pc;
          for (std::size_t p = 0; p < kc; ++p) panel[p * NR + j] = src[p];
        }
        for (std::size_t j = nr; j < NR; ++j) {
          for (std::size_t p = 0; p < kc; ++p) panel[p * NR + j] = 0.0f;
        }
      } else {
        for (std::size_t p = 0; p < kc; ++p) {
          const float* src = b.data + (pc + p) * b.ld + j0;
          float* dst = panel + p * NR;
          for (std::size_t j = 0; j < nr; ++j) dst[j] = src[j];
          for (std::size_t j = nr; j < NR; ++j) dst[j] = 0.0f;
        }
      }
    }
  }
}

// Register-blocked microkernel: acc[MR][NR] += sum_p ap[p]*bp[p] over the
// packed panels, then written to C. The k loop is strictly sequential with
// one accumulator per C element, so each element's floating-point
// reduction order depends only on the KC blocking — never on which tile,
// chunk or thread computed it. That is the determinism argument.
#if defined(__GNUC__) || defined(__clang__)
void micro_kernel(std::size_t kc, const float* ap, const float* bp, float* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr,
                  bool add_into) {
  vf acc[MR][kRowVecs] = {};
  for (std::size_t p = 0; p < kc; ++p, ap += MR, bp += NR) {
    vf b[kRowVecs];
    for (std::size_t v = 0; v < kRowVecs; ++v) {
      b[v] = *reinterpret_cast<const vf*>(bp + v * kLanes);
    }
    for (std::size_t i = 0; i < MR; ++i) {
      for (std::size_t v = 0; v < kRowVecs; ++v) acc[i][v] += ap[i] * b[v];
    }
  }
  // Full-width rows store straight to C; a tail row goes through a
  // row-sized buffer so the vector add never touches C past nr.
  // A constant trip count keeps acc in registers (a loop to mr would
  // index it at run time, from memory).
  for (std::size_t i = 0; i < MR && i < mr; ++i) {
    const auto store = [&](float* dst) {
      for (std::size_t v = 0; v < kRowVecs; ++v) {
        vf* d = reinterpret_cast<vf*>(dst + v * kLanes);
        *d = add_into ? *d + acc[i][v] : acc[i][v];
      }
    };
    float* ci = c + i * ldc;
    if (nr == NR) {
      store(ci);
    } else {
      float row[NR] = {};
      if (add_into) copy_head(row, ci, nr);
      store(row);
      copy_head(ci, row, nr);
    }
  }
}
#else
void micro_kernel(std::size_t kc, const float* ap, const float* bp, float* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr,
                  bool add_into) {
  float acc[MR][NR] = {};
  for (std::size_t p = 0; p < kc; ++p, ap += MR, bp += NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      const float ai = ap[i];
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += ai * bp[j];
    }
  }
  for (std::size_t i = 0; i < mr; ++i) {
    float* ci = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      ci[j] = add_into ? ci[j] + acc[i][j] : acc[i][j];
    }
  }
}
#endif

// Computes rows [r0, r1) of C from packed B, packing A blocks into a
// per-thread scratch buffer on the fly (pool chunks each run on their own
// thread, and workers are persistent, so it allocates once per thread).
// Each KC strip accumulates into C in a fixed order, so any row partition
// yields bit-identical results.
void gemm_rows_blocked(const OperandView& a, const float* bpacked,
                       float* c, std::size_t r0, std::size_t r1,
                       std::size_t k, std::size_t n, bool accumulate) {
  static thread_local std::vector<float> a_scratch;
  const std::size_t npanels = (n + NR - 1) / NR;
  if (a_scratch.size() < MC * KC) a_scratch.resize(MC * KC);
  for (std::size_t pc = 0, kb = 0; pc < k; pc += KC, ++kb) {
    const std::size_t kc = std::min(KC, k - pc);
    const bool add_into = accumulate || pc > 0;
    const float* strip = bpacked + kb * KC * npanels * NR;
    for (std::size_t ic = r0; ic < r1; ic += MC) {
      const std::size_t mc = std::min(MC, r1 - ic);
      pack_a(a, ic, mc, pc, kc, a_scratch.data());
      for (std::size_t jp = 0; jp < npanels; ++jp) {
        const std::size_t j0 = jp * NR;
        const std::size_t nr = std::min(NR, n - j0);
        const float* bp = strip + jp * (kc * NR);
        for (std::size_t ir = 0; ir < mc; ir += MR) {
          const std::size_t mr = std::min(MR, mc - ir);
          micro_kernel(kc, a_scratch.data() + (ir / MR) * (MR * kc), bp,
                       c + (ic + ir) * n + j0, n, mr, nr, add_into);
        }
      }
    }
  }
}

void gemm_core(const OperandView& a, const OperandView& b, float* c,
               std::size_t m, std::size_t k, std::size_t n,
               const GemmOpts& opts) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!opts.accumulate) std::memset(c, 0, m * n * sizeof(float));
    return;
  }
  // Per-shape throughput accounting ("gemm/MxKxN" timer + flops counter;
  // emitters derive GFLOP/s as flops/total_ns). One enabled() load when
  // instrumentation is off.
  const bool observe = obs::enabled();
  std::chrono::steady_clock::time_point obs_t0;
  if (observe) obs_t0 = std::chrono::steady_clock::now();
  // Pack B once into the calling thread's persistent buffer; worker
  // chunks read it shared.
  static thread_local std::vector<float> b_scratch;
  const std::size_t npanels = (n + NR - 1) / NR;
  if (b_scratch.size() < k * npanels * NR) b_scratch.resize(k * npanels * NR);
  pack_b(b, k, n, b_scratch.data());

  ThreadPool& pool = opts.pool ? *opts.pool : ThreadPool::global();
  // Inside a pool task max_chunks() is 1: stay on this thread.
  if (m * k * n >= kParallelMinWork && pool.max_chunks() > 1) {
    const float* bp = b_scratch.data();
    pool.parallel_for(0, m, [&, bp](std::size_t r0, std::size_t r1) {
      gemm_rows_blocked(a, bp, c, r0, r1, k, n, opts.accumulate);
    });
  } else {
    gemm_rows_blocked(a, b_scratch.data(), c, 0, m, k, n, opts.accumulate);
  }

  if (observe) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - obs_t0);
    auto& reg = obs::MetricsRegistry::global();
    const std::string key = "gemm/" + std::to_string(m) + "x" +
                            std::to_string(k) + "x" + std::to_string(n);
    reg.timer(key).record_ns(static_cast<std::uint64_t>(ns.count()));
    reg.counter(key + "/flops").add(2ull * m * k * n);
  }
}

// Shapes the output tensor, or validates it when accumulating into it.
void prepare_c(Tensor& c, std::size_t m, std::size_t n, bool accumulate) {
  if (c.rank() == 2 && c.dim(0) == m && c.dim(1) == n) return;
  if (accumulate) {
    throw std::invalid_argument(
        "gemm: accumulate requires c pre-shaped [" + std::to_string(m) +
        ", " + std::to_string(n) + "], got " + c.shape_string());
  }
  c = Tensor({m, n});
}

}  // namespace

void gemm_raw(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, const GemmOpts& opts) {
  gemm_core({a, k, false}, {b, n, false}, c, m, k, n, opts);
}

void gemm_at_b_raw(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, const GemmOpts& opts) {
  gemm_core({a, m, true}, {b, n, false}, c, m, k, n, opts);
}

void gemm_a_bt_raw(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, const GemmOpts& opts) {
  gemm_core({a, k, false}, {b, k, true}, c, m, k, n, opts);
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c, const GemmOpts& opts) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("gemm: inner dims differ: " +
                                a.shape_string() + " * " + b.shape_string());
  }
  prepare_c(c, m, n, opts.accumulate);
  gemm_raw(a.data(), b.data(), c.data(), m, k, n, opts);
}

void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c,
               const GemmOpts& opts) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  // a is stored [K, M]; logical op is A^T(M,K) * B(K,N).
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("gemm_at_b: inner dims differ: " +
                                a.shape_string() + "^T * " +
                                b.shape_string());
  }
  prepare_c(c, m, n, opts.accumulate);
  gemm_at_b_raw(a.data(), b.data(), c.data(), m, k, n, opts);
}

void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c,
               const GemmOpts& opts) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  // b is stored [N, K]; logical op is A(M,K) * B^T(K,N).
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("gemm_a_bt: inner dims differ: " +
                                a.shape_string() + " * " + b.shape_string() +
                                "^T");
  }
  prepare_c(c, m, n, opts.accumulate);
  gemm_a_bt_raw(a.data(), b.data(), c.data(), m, k, n, opts);
}

}  // namespace adv
