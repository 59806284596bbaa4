// Single-precision matrix multiplication used by the conv (im2col) and
// linear layers. Row-major throughout.
//
// The core is a cache-blocked, panel-packing kernel (see DESIGN.md "GEMM
// design"): C is tiled into MC x NC blocks, A- and B-panels are packed
// into contiguous scratch buffers, and a register-blocked MR x NR
// microkernel runs over the tiles. Transposed operands are absorbed by
// the packing routines, so the backward-pass variants pack instead of
// strided-reading. Multi-threaded runs statically partition the rows of C
// and accumulate every element in a fixed k-order, so results are
// bit-identical across thread counts.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace adv {

class ThreadPool;

/// Options shared by every GEMM entry point. Designed for named-field
/// call sites: gemm_raw(a, b, c, m, k, n, {.accumulate = true}).
struct GemmOpts {
  /// If true, C += A*B instead of C = A*B. Tensor-level entry points then
  /// require c to be pre-shaped [M, N].
  bool accumulate = false;
  /// Pool used for the parallel path; nullptr means ThreadPool::global().
  /// Output is bit-identical for any pool size (static row partitioning,
  /// fixed per-element accumulation order). Called from inside a pool
  /// task (e.g. per-sample conv chunks, nn::Sequential row blocks), the
  /// GEMM runs on the calling thread: nested pool calls run inline.
  ThreadPool* pool = nullptr;
};

/// Blocking parameters of the packed kernel, exported for tests and
/// benches. MR x NR is the register microkernel tile; MC x KC is the
/// packed A-block (sized for L2); B is packed once per call into
/// KC-strip / NR-panel layout.
namespace gemm_blocking {
inline constexpr std::size_t MR = 6;
inline constexpr std::size_t NR = 16;
inline constexpr std::size_t MC = 96;   // multiple of MR
inline constexpr std::size_t KC = 256;
}  // namespace gemm_blocking

/// C = A(MxK) * B(KxN) into C (MxN). Allocates/reshapes c unless
/// opts.accumulate is set, in which case c must already be [M, N].
void gemm(const Tensor& a, const Tensor& b, Tensor& c,
          const GemmOpts& opts = {});

/// C = A^T(MxK, stored KxM) * B(KxN). Used by backward passes.
void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c,
               const GemmOpts& opts = {});

/// C = A(MxK) * B^T(NxK). Used by backward passes.
void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c,
               const GemmOpts& opts = {});

/// Raw pointer core: c[M,N] (+)= a[M,K] * b[K,N]. Exposed for layers that
/// operate on sub-buffers.
void gemm_raw(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, const GemmOpts& opts = {});

/// Raw transposed-A core: c[M,N] (+)= a^T * b with a stored [K, M].
void gemm_at_b_raw(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, const GemmOpts& opts = {});

/// Raw transposed-B core: c[M,N] (+)= a * b^T with b stored [N, K].
void gemm_a_bt_raw(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, const GemmOpts& opts = {});

}  // namespace adv
