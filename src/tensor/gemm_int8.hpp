// Int8 matrix multiplication for the quantized inference path. Row-major
// throughout, mirroring the float kernel's blocking discipline (see
// DESIGN.md "Quantized int8 inference"): C is tiled into MC x NC blocks,
// A- and B-panels are packed into contiguous scratch buffers, and a
// register-blocked MR x NR microkernel with int32 accumulators runs over
// the tiles.
//
// Operand domains: A is uint8 (symmetric-int8 activations offset by +128
// into the unsigned domain, matching the u8 x s8 dot-product hardware),
// B is int8 (per-channel symmetric weights). C accumulates exactly in
// int32: because integer addition is associative, results are bit-
// identical across thread counts and k-blockings by construction — a
// strictly stronger determinism guarantee than the float kernel's
// fixed-order argument. Callers undo the +128 activation offset with the
// per-column sums from colsum_s8 (see quant/quantize.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.hpp"  // GemmOpts

namespace adv {

/// Blocking parameters of the packed int8 kernel, exported for tests and
/// benches. KQ is the dot-product granularity: the microkernel consumes k
/// in quads of 4 bytes (one 32-bit broadcast of A against 4 packed
/// B k-bytes per column), so packed panels round k up to a multiple of 4.
namespace gemm_int8_blocking {
inline constexpr std::size_t MR = 6;
inline constexpr std::size_t NR = 16;
inline constexpr std::size_t MC = 96;   // multiple of MR
inline constexpr std::size_t KC = 256;  // multiple of KQ
inline constexpr std::size_t KQ = 4;
}  // namespace gemm_int8_blocking

/// Name of the compiled microkernel path ("avx512-vnni", "avx-vnni",
/// "scalar") for bench provenance. Every path accumulates exactly.
const char* gemm_int8_kernel_name();

/// Bytes needed by pack_b_s8 for a [K, N] operand (k rounded up to KQ per
/// KC strip, n rounded up to NR).
std::size_t packed_b_int8_size(std::size_t k, std::size_t n);

/// Packs B[K, N] (row-major int8) into KC-strip / NR-panel / k-quad
/// layout. Weights are static after quantization, so callers pack once at
/// quantize time and reuse across forwards (the float kernel re-packs per
/// call; skipping that is part of the int8 speedup). Padding bytes are
/// zero, so padded k-positions and columns contribute nothing.
void pack_b_s8(const std::int8_t* b, std::size_t k, std::size_t n,
               std::int8_t* out);

/// C = A(MxK, u8) * B(KxN, s8) into C (MxN, i32) with B pre-packed by
/// pack_b_s8. opts.accumulate adds into C instead of overwriting.
void gemm_u8s8_packed(const std::uint8_t* a, const std::int8_t* b_packed,
                      std::int32_t* c, std::size_t m, std::size_t k,
                      std::size_t n, const GemmOpts& opts = {});

/// Convenience entry: packs B into thread-local scratch, then runs the
/// packed kernel. For static weights prefer pack_b_s8 + gemm_u8s8_packed.
void gemm_u8s8(const std::uint8_t* a, const std::int8_t* b, std::int32_t* c,
               std::size_t m, std::size_t k, std::size_t n,
               const GemmOpts& opts = {});

/// out[j] = sum_k b[k*n + j] for j in [0, n): the per-column weight sums
/// used to undo the +128 activation offset (true = C - 128 * colsum).
void colsum_s8(const std::int8_t* b, std::size_t k, std::size_t n,
               std::int32_t* out);

/// Bulk activation quantization: out[i] = clamp(rne(x[i] / scale), -127,
/// 127) + 128, i.e. symmetric int8 shifted into the u8 domain the GEMM's A
/// operand expects. `inv_scale` is 1/scale. Rounding is round-to-nearest-
/// even on every path (cvtps on AVX2, lrintf scalar — both honor the
/// default rounding mode), so results are bit-identical to the scalar
/// reference and independent of where the vector/tail boundary falls.
void quantize_u8(const float* x, std::size_t n, float inv_scale,
                 std::uint8_t* out);

/// Bulk dequantization of a [rows, cols] int32 accumulator block:
///   out[i, j] = (acc[i, j] - 128 * colsum[j]) * (act_scale * w_scales[j])
///               + bias[j]
/// undoing the +128 activation offset and both quantization scales in one
/// contiguous pass (the j-inner loop auto-vectorizes under the kernel TU's
/// -march=native).
void dequant_rows(const std::int32_t* acc, const std::int32_t* colsum,
                  const float* w_scales, const float* bias, float act_scale,
                  std::size_t rows, std::size_t cols, float* out);

/// dequant_rows with a transposed destination: out[j * rows + i], the NCHW
/// plane layout a conv forward needs (rows = output pixels, cols = output
/// channels). Tiles rows through a small scratch block so the arithmetic
/// stays vectorized and only the L1-resident transpose is strided.
void dequant_rows_transposed(const std::int32_t* acc,
                             const std::int32_t* colsum,
                             const float* w_scales, const float* bias,
                             float act_scale, std::size_t rows,
                             std::size_t cols, float* out);

}  // namespace adv
