// One NR-float row of a microkernel tile as whole vectors, shared by the
// blocked GEMM (gemm.cpp), the direct convolution (conv_micro.cpp) and
// the MaxPool2d backward (max_pool.cpp, for its lane count).
//
// Private to those files, which compile in one ISA regime (see
// src/tensor/CMakeLists.txt). The lane count follows the including
// file's target ISA, so everything here has internal linkage: a copy
// compiled for AVX-512 must never be linked into a baseline-ISA caller.
#pragma once

#include <cstddef>
#include <cstring>

#include "tensor/gemm.hpp"

#if defined(__GNUC__) || defined(__clang__)
namespace adv {
namespace {

// A tile row is one zmm under AVX-512 (the broadcast of the A element
// folds into the FMA) and two ymm otherwise. The width is spelled per ISA
// on purpose: GCC 12 compiles a 64-byte vector type for AVX2 into code
// that ran 4.5-9x slower than two native ymm vectors.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 16;
#else
constexpr std::size_t kLanes = 8;
#endif
constexpr std::size_t kRowVecs = gemm_blocking::NR / kLanes;
static_assert(gemm_blocking::NR % kLanes == 0,
              "tile row must be whole vectors");

// Unaligned-load capable float / int lane vectors.
typedef float vf __attribute__((vector_size(kLanes * sizeof(float)),
                                aligned(4), may_alias));
typedef int vi __attribute__((vector_size(kLanes * sizeof(int)), aligned(4),
                              may_alias));

// Copies the first n <= NR floats of a row in fixed-size pieces, one per
// set bit of n. A variable-length memcpy becomes `rep movs` under generic
// tuning, whose start-up cost outweighs a 12- or 14-float copy.
static_assert((gemm_blocking::NR & (gemm_blocking::NR - 1)) == 0,
              "copy_head splits n into power-of-two pieces");
inline void copy_head(float* dst, const float* src, std::size_t n) {
  for (std::size_t w = gemm_blocking::NR; w > 0; w /= 2) {
    if (n & w) {
      std::memcpy(dst, src, w * sizeof(float));
      dst += w;
      src += w;
    }
  }
}

}  // namespace
}  // namespace adv
#endif
