#include "tensor/gemm_int8.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "tensor/thread_pool.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace adv {
namespace {

using gemm_int8_blocking::KC;
using gemm_int8_blocking::KQ;
using gemm_int8_blocking::MC;
using gemm_int8_blocking::MR;
using gemm_int8_blocking::NR;

// Below this many multiply-adds the pool handoff costs more than it saves
// (same threshold as the float kernel — the per-op cost is lower but so is
// the per-byte traffic).
constexpr std::size_t kParallelMinWork = 64 * 1024;

// Packs rows [r0, r0 + rows) x k-cols [pc, pc + kc) of A (u8, row-major,
// leading dimension lda) into MR-row quad-major panels: panel t holds rows
// r0 + t*MR .. +MR; within a panel, quad q stores each row's 4 consecutive
// k-bytes contiguously (out[q*MR*KQ + i*KQ + t]) so the microkernel
// broadcasts them with one 32-bit load. Rows and k are zero-padded to full
// MR / KQ; padded k-bytes meet zero B-bytes, padded rows are never stored.
void pack_a_u8(const std::uint8_t* a, std::size_t lda, std::size_t r0,
               std::size_t rows, std::size_t pc, std::size_t kc,
               std::uint8_t* out) {
  const std::size_t kq = (kc + KQ - 1) / KQ;
  const std::size_t kq_full = kc / KQ;
  for (std::size_t ir = 0; ir < rows; ir += MR) {
    const std::size_t mr = std::min(MR, rows - ir);
    std::uint8_t* panel = out + (ir / MR) * (MR * KQ * kq);
    if (mr == MR) {
      // Full tile: every quad is one unconditional 4-byte word move per
      // row. Packing is pure data movement, and for small-k shapes (conv
      // im2col with k = C*3*3) it rivals the dot products themselves — the
      // per-byte liveness-checked path below costs ~4x as much.
      for (std::size_t q = 0; q < kq_full; ++q) {
        std::uint8_t* dst = panel + q * (MR * KQ);
        for (std::size_t i = 0; i < MR; ++i) {
          std::memcpy(dst + i * KQ, a + (r0 + ir + i) * lda + pc + q * KQ,
                      KQ);
        }
      }
      for (std::size_t q = kq_full; q < kq; ++q) {
        std::uint8_t* dst = panel + q * (MR * KQ);
        for (std::size_t i = 0; i < MR; ++i) {
          const std::uint8_t* src = a + (r0 + ir + i) * lda + pc + q * KQ;
          for (std::size_t t = 0; t < KQ; ++t) {
            dst[i * KQ + t] = q * KQ + t < kc ? src[t] : 0;
          }
        }
      }
      continue;
    }
    for (std::size_t q = 0; q < kq; ++q) {
      std::uint8_t* dst = panel + q * (MR * KQ);
      for (std::size_t i = 0; i < MR; ++i) {
        const std::uint8_t* src = a + (r0 + ir + i) * lda + pc + q * KQ;
        for (std::size_t t = 0; t < KQ; ++t) {
          const bool live = i < mr && q * KQ + t < kc;
          dst[i * KQ + t] = live ? src[t] : 0;
        }
      }
    }
  }
}

std::size_t strip_bytes(std::size_t kc, std::size_t npanels) {
  const std::size_t kq = (kc + KQ - 1) / KQ;
  return kq * KQ * NR * npanels;
}

// The SIMD microkernel needs a VNNI u8 x s8 dot product, which sums each
// 4-byte quad straight into int32 — exact for every input. Without VNNI
// the scalar kernel runs, so int8 results are exact on every build.
#if (defined(__AVX512VNNI__) && defined(__AVX512VL__)) || defined(__AVXVNNI__)

// One u8 x s8 quad dot-product step: acc[j] += sum_t a[4t..] * b[j*4+t]
// over 8 int32 lanes (8 columns x 4 k-bytes).
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
inline __m256i dp_u8s8(__m256i acc, __m256i a, __m256i b) {
  return _mm256_dpbusd_epi32(acc, a, b);
}
constexpr const char* kKernelName = "avx512-vnni";
#else
inline __m256i dp_u8s8(__m256i acc, __m256i a, __m256i b) {
  return _mm256_dpbusd_avx_epi32(acc, a, b);
}
constexpr const char* kKernelName = "avx-vnni";
#endif

// Register-blocked microkernel: 12 int32 accumulator vectors (MR rows x
// two 8-column groups) walked over k-quads. Integer adds are associative,
// so no bracketing argument is needed — any decomposition is exact.
void micro_kernel_i8(std::size_t kq, const std::uint8_t* ap,
                     const std::int8_t* bp, std::int32_t* c, std::size_t ldc,
                     std::size_t mr, std::size_t nr, bool add_into) {
  static_assert(NR == 16, "microkernel assumes two 8-column int32 groups");
  static_assert(KQ == 4, "dpbusd consumes 4 k-bytes per lane");
  __m256i acc0[MR];
  __m256i acc1[MR];
  for (std::size_t i = 0; i < MR; ++i) {
    acc0[i] = _mm256_setzero_si256();
    acc1[i] = _mm256_setzero_si256();
  }
  for (std::size_t q = 0; q < kq; ++q, ap += MR * KQ, bp += NR * KQ) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 32));
    for (std::size_t i = 0; i < MR; ++i) {
      std::int32_t quad;
      std::memcpy(&quad, ap + i * KQ, sizeof(quad));
      const __m256i av = _mm256_set1_epi32(quad);
      acc0[i] = dp_u8s8(acc0[i], av, b0);
      acc1[i] = dp_u8s8(acc1[i], av, b1);
    }
  }
  if (mr == MR && nr == NR) {
    for (std::size_t i = 0; i < MR; ++i) {
      __m256i* c0 = reinterpret_cast<__m256i*>(c + i * ldc);
      __m256i* c1 = reinterpret_cast<__m256i*>(c + i * ldc + 8);
      if (add_into) {
        _mm256_storeu_si256(c0,
                            _mm256_add_epi32(_mm256_loadu_si256(c0), acc0[i]));
        _mm256_storeu_si256(c1,
                            _mm256_add_epi32(_mm256_loadu_si256(c1), acc1[i]));
      } else {
        _mm256_storeu_si256(c0, acc0[i]);
        _mm256_storeu_si256(c1, acc1[i]);
      }
    }
  } else {
    alignas(32) std::int32_t buf[NR];
    for (std::size_t i = 0; i < mr; ++i) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(buf), acc0[i]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 8), acc1[i]);
      std::int32_t* ci = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) {
        ci[j] = add_into ? ci[j] + buf[j] : buf[j];
      }
    }
  }
}

#else  // no VNNI

constexpr const char* kKernelName = "scalar";

void micro_kernel_i8(std::size_t kq, const std::uint8_t* ap,
                     const std::int8_t* bp, std::int32_t* c, std::size_t ldc,
                     std::size_t mr, std::size_t nr, bool add_into) {
  std::int32_t acc[MR][NR] = {};
  for (std::size_t q = 0; q < kq; ++q, ap += MR * KQ, bp += NR * KQ) {
    for (std::size_t i = 0; i < MR; ++i) {
      for (std::size_t t = 0; t < KQ; ++t) {
        const std::int32_t ai = ap[i * KQ + t];
        for (std::size_t j = 0; j < NR; ++j) {
          acc[i][j] += ai * static_cast<std::int32_t>(bp[j * KQ + t]);
        }
      }
    }
  }
  for (std::size_t i = 0; i < mr; ++i) {
    std::int32_t* ci = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      ci[j] = add_into ? ci[j] + acc[i][j] : acc[i][j];
    }
  }
}

#endif  // VNNI

// Computes rows [r0, r1) of C from packed B, packing A blocks into a
// per-thread scratch buffer on the fly. Mirrors the float
// gemm_rows_blocked; pool workers are persistent so the thread_local
// scratch allocates once per thread lifetime.
void gemm_rows_blocked_i8(const std::uint8_t* a, std::size_t lda,
                          const std::int8_t* bpacked, std::int32_t* c,
                          std::size_t r0, std::size_t r1, std::size_t k,
                          std::size_t n, bool accumulate) {
  static thread_local std::vector<std::uint8_t> a_scratch;
  if (a_scratch.size() < MC * KC) a_scratch.resize(MC * KC);
  const std::size_t npanels = (n + NR - 1) / NR;
  std::size_t strip_off = 0;
  for (std::size_t pc = 0; pc < k; pc += KC) {
    const std::size_t kc = std::min(KC, k - pc);
    const std::size_t kq = (kc + KQ - 1) / KQ;
    const bool add_into = accumulate || pc > 0;
    const std::int8_t* strip = bpacked + strip_off;
    strip_off += strip_bytes(kc, npanels);
    for (std::size_t ic = r0; ic < r1; ic += MC) {
      const std::size_t mc = std::min(MC, r1 - ic);
      pack_a_u8(a, lda, ic, mc, pc, kc, a_scratch.data());
      for (std::size_t jp = 0; jp < npanels; ++jp) {
        const std::size_t j0 = jp * NR;
        const std::size_t nr = std::min(NR, n - j0);
        const std::int8_t* bp = strip + jp * (kq * KQ * NR);
        for (std::size_t ir = 0; ir < mc; ir += MR) {
          const std::size_t mr = std::min(MR, mc - ir);
          micro_kernel_i8(kq, a_scratch.data() + (ir / MR) * (MR * KQ * kq),
                          bp, c + (ic + ir) * n + j0, n, mr, nr, add_into);
        }
      }
    }
  }
}

}  // namespace

const char* gemm_int8_kernel_name() { return kKernelName; }

std::size_t packed_b_int8_size(std::size_t k, std::size_t n) {
  const std::size_t npanels = (n + NR - 1) / NR;
  std::size_t bytes = 0;
  for (std::size_t pc = 0; pc < k; pc += KC) {
    bytes += strip_bytes(std::min(KC, k - pc), npanels);
  }
  return bytes;
}

void pack_b_s8(const std::int8_t* b, std::size_t k, std::size_t n,
               std::int8_t* out) {
  const std::size_t npanels = (n + NR - 1) / NR;
  std::size_t strip_off = 0;
  for (std::size_t pc = 0; pc < k; pc += KC) {
    const std::size_t kc = std::min(KC, k - pc);
    const std::size_t kq = (kc + KQ - 1) / KQ;
    std::int8_t* strip = out + strip_off;
    strip_off += strip_bytes(kc, npanels);
    for (std::size_t jp = 0; jp < npanels; ++jp) {
      const std::size_t j0 = jp * NR;
      const std::size_t nr = std::min(NR, n - j0);
      std::int8_t* panel = strip + jp * (kq * KQ * NR);
      for (std::size_t q = 0; q < kq; ++q) {
        std::int8_t* dst = panel + q * (NR * KQ);
        for (std::size_t j = 0; j < NR; ++j) {
          for (std::size_t t = 0; t < KQ; ++t) {
            const std::size_t p = pc + q * KQ + t;
            const bool live = j < nr && q * KQ + t < kc;
            dst[j * KQ + t] = live ? b[p * n + j0 + j] : 0;
          }
        }
      }
    }
  }
}

void gemm_u8s8_packed(const std::uint8_t* a, const std::int8_t* b_packed,
                      std::int32_t* c, std::size_t m, std::size_t k,
                      std::size_t n, const GemmOpts& opts) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!opts.accumulate) std::memset(c, 0, m * n * sizeof(std::int32_t));
    return;
  }
  // Per-shape throughput accounting ("quant/gemm/MxKxN" timer + ops
  // counter); one enabled() load when instrumentation is off.
  const bool observe = obs::enabled();
  std::chrono::steady_clock::time_point obs_t0;
  if (observe) obs_t0 = std::chrono::steady_clock::now();

  ThreadPool& pool = opts.pool ? *opts.pool : ThreadPool::global();
  // Inside a pool task max_chunks() is 1: stay on this thread.
  if (m * k * n >= kParallelMinWork && pool.max_chunks() > 1) {
    pool.parallel_for_indexed(
        0, m, [&](std::size_t, std::size_t r0, std::size_t r1) {
          gemm_rows_blocked_i8(a, k, b_packed, c, r0, r1, k, n,
                               opts.accumulate);
        });
  } else {
    gemm_rows_blocked_i8(a, k, b_packed, c, 0, m, k, n, opts.accumulate);
  }

  if (observe) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - obs_t0);
    auto& reg = obs::MetricsRegistry::global();
    const std::string key = "quant/gemm/" + std::to_string(m) + "x" +
                            std::to_string(k) + "x" + std::to_string(n);
    reg.timer(key).record_ns(static_cast<std::uint64_t>(ns.count()));
    reg.counter(key + "/ops").add(2ull * m * k * n);
  }
}

void gemm_u8s8(const std::uint8_t* a, const std::int8_t* b, std::int32_t* c,
               std::size_t m, std::size_t k, std::size_t n,
               const GemmOpts& opts) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!opts.accumulate) std::memset(c, 0, m * n * sizeof(std::int32_t));
    return;
  }
  static thread_local std::vector<std::int8_t> b_scratch;
  const std::size_t need = packed_b_int8_size(k, n);
  if (b_scratch.size() < need) b_scratch.resize(need);
  pack_b_s8(b, k, n, b_scratch.data());
  gemm_u8s8_packed(a, b_scratch.data(), c, m, k, n, opts);
}

void colsum_s8(const std::int8_t* b, std::size_t k, std::size_t n,
               std::int32_t* out) {
  std::memset(out, 0, n * sizeof(std::int32_t));
  for (std::size_t p = 0; p < k; ++p) {
    const std::int8_t* row = b + p * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
  }
}

void quantize_u8(const float* x, std::size_t n, float inv_scale,
                 std::uint8_t* out) {
  std::size_t i = 0;
#if defined(__AVX2__)
  // 32 floats -> 32 bytes per iteration: scale, round-to-nearest-even
  // (cvtps under the default MXCSR mode matches lrintf), clamp to the
  // symmetric int8 range, shift by +128 into [1, 255], then narrow
  // 32->16->8 bits. packs/packus interleave 128-bit lanes, so a final
  // dword permute restores source order. Saturating packs can't clip:
  // values are already in [1, 255] before narrowing.
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  const __m256i off = _mm256_set1_epi32(128);
  const __m256i unlane = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  for (; i + 32 <= n; i += 32) {
    __m256i v[4];
    for (int t = 0; t < 4; ++t) {
      const __m256 f = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * t), inv);
      __m256i q = _mm256_cvtps_epi32(f);
      q = _mm256_min_epi32(_mm256_max_epi32(q, lo), hi);
      v[t] = _mm256_add_epi32(q, off);
    }
    const __m256i w01 = _mm256_packs_epi32(v[0], v[1]);
    const __m256i w23 = _mm256_packs_epi32(v[2], v[3]);
    const __m256i bytes =
        _mm256_permutevar8x32_epi32(_mm256_packus_epi16(w01, w23), unlane);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), bytes);
  }
#endif
  for (; i < n; ++i) {
    const long q = std::lrintf(x[i] * inv_scale);
    out[i] = static_cast<std::uint8_t>(std::clamp<long>(q, -127, 127) + 128);
  }
}

void dequant_rows(const std::int32_t* acc, const std::int32_t* colsum,
                  const float* w_scales, const float* bias, float act_scale,
                  std::size_t rows, std::size_t cols, float* out) {
  for (std::size_t i = 0; i < rows; ++i) {
    const std::int32_t* row = acc + i * cols;
    float* o = out + i * cols;
    for (std::size_t j = 0; j < cols; ++j) {
      const std::int32_t raw = row[j] - 128 * colsum[j];
      o[j] = static_cast<float>(raw) * (act_scale * w_scales[j]) + bias[j];
    }
  }
}

namespace {

#if defined(__AVX__)
// Canonical AVX 8x8 float transpose: dst[j * dst_stride + i] =
// src[i * src_stride + j] for one 8x8 block.
inline void transpose_8x8(const float* src, std::size_t src_stride,
                          float* dst, std::size_t dst_stride) {
  __m256 r[8];
  for (int i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * src_stride);
  __m256 t[8];
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  __m256 u[8];
  u[0] = _mm256_shuffle_ps(t[0], t[2], 0x44);
  u[1] = _mm256_shuffle_ps(t[0], t[2], 0xEE);
  u[2] = _mm256_shuffle_ps(t[1], t[3], 0x44);
  u[3] = _mm256_shuffle_ps(t[1], t[3], 0xEE);
  u[4] = _mm256_shuffle_ps(t[4], t[6], 0x44);
  u[5] = _mm256_shuffle_ps(t[4], t[6], 0xEE);
  u[6] = _mm256_shuffle_ps(t[5], t[7], 0x44);
  u[7] = _mm256_shuffle_ps(t[5], t[7], 0xEE);
  for (int i = 0; i < 4; ++i) {
    _mm256_storeu_ps(dst + i * dst_stride,
                     _mm256_permute2f128_ps(u[i], u[i + 4], 0x20));
    _mm256_storeu_ps(dst + (i + 4) * dst_stride,
                     _mm256_permute2f128_ps(u[i], u[i + 4], 0x31));
  }
}
#endif

}  // namespace

void dequant_rows_transposed(const std::int32_t* acc,
                             const std::int32_t* colsum,
                             const float* w_scales, const float* bias,
                             float act_scale, std::size_t rows,
                             std::size_t cols, float* out) {
  constexpr std::size_t kTile = 32;
  static thread_local std::vector<float> tmp;
  if (tmp.size() < kTile * cols) tmp.resize(kTile * cols);
  for (std::size_t i0 = 0; i0 < rows; i0 += kTile) {
    const std::size_t ib = std::min(kTile, rows - i0);
    dequant_rows(acc + i0 * cols, colsum, w_scales, bias, act_scale, ib, cols,
                 tmp.data());
    std::size_t j = 0;
#if defined(__AVX__)
    // Vector transpose of the 8x8-aligned body; the scalar loops below
    // sweep up ragged row/column remainders.
    for (; j + 8 <= cols; j += 8) {
      std::size_t ii = 0;
      for (; ii + 8 <= ib; ii += 8) {
        transpose_8x8(tmp.data() + ii * cols + j, cols,
                      out + j * rows + i0 + ii, rows);
      }
      for (; ii < ib; ++ii) {
        for (std::size_t jj = 0; jj < 8; ++jj) {
          out[(j + jj) * rows + i0 + ii] = tmp[ii * cols + j + jj];
        }
      }
    }
#endif
    for (; j < cols; ++j) {
      float* col = out + j * rows + i0;
      for (std::size_t ii = 0; ii < ib; ++ii) col[ii] = tmp[ii * cols + j];
    }
  }
}

}  // namespace adv
