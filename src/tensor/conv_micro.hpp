// Direct-convolution microkernels for the small stride-1 shapes that
// dominate the MagNet models (3x3 "same" autoencoder/classifier convs).
//
// The im2col+GEMM path materializes a [C*k*k, out_h*out_w] column matrix
// per sample (a ~k^2 blow-up of the input) and then packs it AGAIN inside
// the GEMM. The direct path here keeps the input in a small zero-padded
// copy and streams taps straight out of it with the same MR x NR register
// tiling as the blocked GEMM microkernel (gemm.cpp) — output channels
// (resp. input channels on the backward pass) on the MR axis, output
// pixels of one row on the NR axis. An input gradient with few input
// channels (in_c <= MR/2, a model's first conv) fills the MR axis with
// MR/in_c pixel rows of all its channels instead of padding it.
//
// Bitwise-identity contract (the bar every perf PR in this repo clears):
// for every output element the floating-point reduction runs in exactly
// the im2col+GEMM order — strictly sequential over the reduction index
// within a strip, strips combined in ascending order, one accumulator per
// element — and the surrounding code compiles in the same translation-
// unit ISA regime as gemm.cpp (see src/tensor/CMakeLists.txt), so
// mul+add contraction decisions match. Zero-padding taps contribute
// exact +0.0 terms, which cannot change an accumulator that started at
// +0.0 (such a sum is never -0.0), so reading padded zeros where im2col
// wrote zeros — or where col2im skipped an out-of-range tap — is
// bitwise invisible. Which tile row an element lands in changes no
// operation on it, so pixel-row tiling is bitwise invisible too. Tests assert the identity per shape and thread
// count; DESIGN.md section 16 has the full argument.
#pragma once

#include <cstddef>

#include "tensor/gemm.hpp"  // gemm_blocking constants shared with the GEMM

namespace adv::conv {

/// Activation fused into the conv store epilogue (after the bias add),
/// bitwise-equal to running the standalone activation layer on the conv
/// output. Selected by the Sequential peephole (see nn/sequential.cpp).
enum class Epilogue { None, ReLU, Sigmoid };

/// Upper bound on the reduction length (in_c*k*k forward, out_c*k*k
/// backward) the kernels handle: the tap-pointer table lives on the
/// stack. Shapes beyond it fall back to im2col+GEMM.
inline constexpr std::size_t kMaxTaps = 2048;

/// True when the direct kernels cover this layer shape. Stride > 1 and
/// padding >= kernel fall back to im2col+GEMM (the backward full
/// correlation needs pad' = kernel-1-padding >= 0), as do reductions
/// past kMaxTaps and out_channels past one KC strip (the backward path
/// maps GEMM KC strips onto whole taps, one tap = out_channels terms).
inline bool direct_supported(std::size_t in_c, std::size_t out_c,
                             std::size_t kernel, std::size_t stride,
                             std::size_t padding) {
  return stride == 1 && kernel > 0 && kernel <= 7 && padding < kernel &&
         in_c * kernel * kernel <= kMaxTaps &&
         out_c * kernel * kernel <= kMaxTaps &&
         out_c <= gemm_blocking::KC;
}

/// Floats needed for one zero-padded sample copy [c, h+2p, w+2p], plus NR
/// floats of zeroed slack so full-width vector loads at row tails never
/// read past the allocation.
inline std::size_t padded_size(std::size_t c, std::size_t h, std::size_t w,
                               std::size_t pad) {
  return c * (h + 2 * pad) * (w + 2 * pad) + gemm_blocking::NR;
}

/// Zero-fills dst (padded_size floats) and copies src [c, h, w] into the
/// interior. memcpy/memset preserve bit patterns, so padded reads are
/// bitwise the values im2col would have produced.
void pad_image(const float* src, std::size_t c, std::size_t h, std::size_t w,
               std::size_t pad, float* dst);

/// Floats needed by pack_weights_fwd: ceil(out_c/MR) panels of MR*k2.
inline std::size_t packed_fwd_size(std::size_t out_c, std::size_t k2) {
  const std::size_t tiles =
      (out_c + gemm_blocking::MR - 1) / gemm_blocking::MR;
  return tiles * gemm_blocking::MR * k2;
}

/// Packs weight [out_c, k2] into MR-row panels laid out reduction-major
/// (panel[p*MR + i] = w[(tile*MR+i)*k2 + p]), zero-padded to full MR —
/// the same A-panel layout the GEMM packs per KC strip, stored whole.
void pack_weights_fwd(const float* weight, std::size_t out_c, std::size_t k2,
                      float* out);

/// Pixel rows one input-gradient tile covers. The tile's MR rows hold
/// input channels; when at least two pixel rows of all in_c channels fit
/// (2*in_c <= MR) a tile takes G = MR / in_c consecutive pixel rows
/// instead, so the first conv of a model (in_c = 1 or 3) pads no tile row.
inline std::size_t bwd_row_group(std::size_t in_c) {
  return 2 * in_c <= gemm_blocking::MR ? gemm_blocking::MR / in_c : 1;
}

/// Floats needed by pack_weights_bwd: ceil(in_c/C) panels of
/// C * (out_c*kernel*kernel), C = MR / bwd_row_group(in_c) channel slots.
inline std::size_t packed_bwd_size(std::size_t in_c, std::size_t out_c,
                                   std::size_t kernel) {
  const std::size_t cs = gemm_blocking::MR / bwd_row_group(in_c);
  return (in_c + cs - 1) / cs * cs * (out_c * kernel * kernel);
}

/// Packs weight [out_c, in_c*k*k] for the input-gradient kernel: panel
/// rows are INPUT channels, C = MR / bwd_row_group(in_c) of them per
/// panel (zero-padded), and the reduction index runs tap-major /
/// out-channel-minor (p = (ki*k + kj)*out_c + oc), matching col2im's
/// tap-ascending accumulation order with each tap's out-channel sum
/// completed first.
void pack_weights_bwd(const float* weight, std::size_t in_c,
                      std::size_t out_c, std::size_t kernel, float* out);

/// One-sample direct forward: out[oc, oh, ow] = bias[oc] + sum over
/// (c, ki, kj) of w * xpad, with `epi` applied last. xpad is the
/// pad_image copy (pad = padding); out is fully overwritten
/// ([out_c, h+2p-k+1, w+2p-k+1]). bias may be null (no add).
void direct_forward(const float* xpad, const float* wpack, const float* bias,
                    std::size_t in_c, std::size_t h, std::size_t w,
                    std::size_t kernel, std::size_t padding,
                    std::size_t out_c, Epilogue epi, float* out);

/// One-sample direct input gradient (stride 1): full correlation of the
/// output gradient with the unflipped kernel. gpad is the pad_image copy
/// of the [out_c, oh, ow] gradient sample with pad = kernel-1-padding;
/// dx [in_c, h, w] is fully overwritten.
void direct_input_grad(const float* gpad, const float* wpack,
                       std::size_t in_c, std::size_t h, std::size_t w,
                       std::size_t kernel, std::size_t padding,
                       std::size_t out_c, float* dx);

}  // namespace adv::conv
