#include "tensor/conv_micro.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/tile_row.hpp"

namespace adv::conv {
namespace {

using gemm_blocking::KC;
using gemm_blocking::MR;
using gemm_blocking::NR;

// The tile kernel below is the GEMM microkernel (gemm.cpp) with the
// packed-B panel replaced by tap pointers into the padded image: lane j
// of reduction index p reads taps[p][off + j]. Per output element the
// reduction is strictly sequential in p within a strip and strips are
// combined in ascending order — exactly gemm_rows_blocked's KC schedule
// (strip 0 stores, later strips load-add; a register add of the same two
// floats rounds identically). The forward caller passes strip = KC; the
// backward caller passes strip = out_c so each strip is one whole kernel
// tap, reproducing col2im's add-completed-taps-in-order bracketing.
//
// A tile's MR rows are G pixel rows of C = MR / G channels each. Every
// forward tile has G = 1 (MR output channels of one pixel row); an input
// gradient at in_c <= MR / 2 tiles G = MR / in_c pixel rows instead, so
// no tile row is channel padding. Tile row i = g*C + ch reads the tap
// row taps[p] + off + g*rows.tap_ld against weight wp[ch] (a panel holds
// C weights per reduction index) and stores to c + ch*ldc + g*rows.out_ld.
// A pixel row's tap vector is loaded once for its C channels. Rows with
// ch >= mc or g >= rows.count are computed on a valid row's taps and
// never stored, so no load leaves the padded image.
//
// Tail tiles always load full NR lanes (the padded image carries NR
// floats of zeroed slack) and run the epilogue on whole vectors too; only
// the store is cut to nr lanes, through a row-sized buffer.
struct PixelRows {
  std::size_t tap_ld;  // padded-image floats between two tap rows
  std::size_t out_ld;  // output floats between two pixel rows
  std::size_t count;   // valid pixel rows, 1..G
};

#if defined(__GNUC__) || defined(__clang__)
template <std::size_t G>
void conv_tile(std::size_t k2, std::size_t strip, const float* wpanel,
               const float* const* taps, std::size_t off, PixelRows rows,
               float* c, std::size_t ldc, std::size_t mc, std::size_t nr,
               const float* bias, Epilogue epi) {
  constexpr std::size_t C = MR / G;
  static_assert(C * G == MR, "a tile is G whole pixel rows");
  std::size_t goff[G];
  for (std::size_t g = 0; g < G; ++g) {
    goff[g] = off + (g < rows.count ? g : 0) * rows.tap_ld;
  }
  vf acc[MR][kRowVecs] = {};
  const float* wp = wpanel;
  for (std::size_t p0 = 0; p0 < k2; p0 += strip) {
    const std::size_t pe = std::min(p0 + strip, k2);
    vf s[MR][kRowVecs] = {};
    for (std::size_t p = p0; p < pe; ++p, wp += C) {
      for (std::size_t g = 0; g < G; ++g) {
        const float* src = taps[p] + goff[g];
        vf b[kRowVecs];
        for (std::size_t v = 0; v < kRowVecs; ++v) {
          b[v] = *reinterpret_cast<const vf*>(src + v * kLanes);
        }
        for (std::size_t ch = 0; ch < C; ++ch) {
          for (std::size_t v = 0; v < kRowVecs; ++v) {
            s[g * C + ch][v] += wp[ch] * b[v];
          }
        }
      }
    }
    for (std::size_t i = 0; i < MR; ++i) {
      for (std::size_t v = 0; v < kRowVecs; ++v) {
        acc[i][v] = p0 == 0 ? s[i][v] : acc[i][v] + s[i][v];
      }
    }
  }
  // Full-width rows store straight to C unless Sigmoid still has to run
  // on the stored lanes; other rows go through a row-sized buffer.
  const vf zero = {};
  // A constant trip count keeps acc in registers (a loop to the valid
  // row count would index it at run time, from memory).
  for (std::size_t i = 0; i < MR; ++i) {
    const std::size_t g = i / C, ch = i % C;
    if (ch >= mc || g >= rows.count) continue;
    const auto store = [&](float* dst) {
      for (std::size_t v = 0; v < kRowVecs; ++v) {
        vf x = acc[i][v];
        if (bias) x += bias[ch];
        if (epi == Epilogue::ReLU) {
          // x > 0 ? x : 0 as a sign-exact mask (max() would keep -0.0,
          // the activation layer's ternary does not).
          x = (vf)((vi)x & (vi)(x > zero));
        }
        *reinterpret_cast<vf*>(dst + v * kLanes) = x;
      }
    };
    float* ci = c + ch * ldc + g * rows.out_ld;
    if (nr == NR && epi != Epilogue::Sigmoid) {
      store(ci);
    } else {
      float row[NR] = {};
      store(row);
      if (epi == Epilogue::Sigmoid) {
        // Scalar exp keeps the lane bitwise equal to Sigmoid::forward.
        for (std::size_t j = 0; j < nr; ++j) {
          row[j] = 1.0f / (1.0f + std::exp(-row[j]));
        }
      }
      copy_head(ci, row, nr);
    }
  }
}
#else
template <std::size_t G>
void conv_tile(std::size_t k2, std::size_t strip, const float* wpanel,
               const float* const* taps, std::size_t off, PixelRows rows,
               float* c, std::size_t ldc, std::size_t mc, std::size_t nr,
               const float* bias, Epilogue epi) {
  constexpr std::size_t C = MR / G;
  static_assert(C * G == MR, "a tile is G whole pixel rows");
  std::size_t goff[G];
  for (std::size_t g = 0; g < G; ++g) {
    goff[g] = off + (g < rows.count ? g : 0) * rows.tap_ld;
  }
  float acc[MR][NR];
  const float* wp = wpanel;
  for (std::size_t p0 = 0; p0 < k2; p0 += strip) {
    const std::size_t pe = std::min(p0 + strip, k2);
    float s[MR][NR] = {};
    for (std::size_t p = p0; p < pe; ++p, wp += C) {
      for (std::size_t g = 0; g < G; ++g) {
        const float* src = taps[p] + goff[g];
        for (std::size_t ch = 0; ch < C; ++ch) {
          const float wi = wp[ch];
          for (std::size_t j = 0; j < NR; ++j) s[g * C + ch][j] += wi * src[j];
        }
      }
    }
    for (std::size_t i = 0; i < MR; ++i) {
      for (std::size_t j = 0; j < NR; ++j) {
        acc[i][j] = p0 == 0 ? s[i][j] : acc[i][j] + s[i][j];
      }
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    const std::size_t g = i / C, ch = i % C;
    if (ch >= mc || g >= rows.count) continue;
    float* ci = c + ch * ldc + g * rows.out_ld;
    for (std::size_t j = 0; j < nr; ++j) {
      float v = acc[i][j];
      if (bias) v += bias[ch];
      if (epi == Epilogue::ReLU) {
        v = v > 0.0f ? v : 0.0f;
      } else if (epi == Epilogue::Sigmoid) {
        v = 1.0f / (1.0f + std::exp(-v));
      }
      ci[j] = v;
    }
  }
}
#endif

}  // namespace

void pad_image(const float* src, std::size_t c, std::size_t h, std::size_t w,
               std::size_t pad, float* dst) {
  const std::size_t pw = w + 2 * pad;
  if (pad == 0) {
    std::memcpy(dst, src, c * h * w * sizeof(float));
    std::memset(dst + c * h * w, 0, NR * sizeof(float));
    return;
  }
  // Zero only the border bytes: every interior row is fully overwritten
  // by the memcpy, so a whole-buffer memset would touch each image byte
  // twice. The buffer is reused for every sample of a chunk (it holds the
  // previous sample), so every byte of [dst, dst + c*ph*pw + NR) must
  // still be written — the segments below tile that range exactly.
  float* d = dst;
  for (std::size_t ch = 0; ch < c; ++ch) {
    // Top pad rows plus the first interior row's left pad.
    std::memset(d, 0, (pad * pw + pad) * sizeof(float));
    d += pad * pw + pad;
    const float* s = src + ch * h * w;
    for (std::size_t r = 0; r < h; ++r) {
      std::memcpy(d, s, w * sizeof(float));
      d += w;
      s += w;
      // Right pad of this row + left pad of the next row, contiguous;
      // after the last row this starts the bottom pad block.
      std::memset(d, 0, 2 * pad * sizeof(float));
      d += 2 * pad;
    }
    // Remainder of the bottom pad rows.
    std::memset(d, 0, (pad * pw - pad) * sizeof(float));
    d += pad * pw - pad;
  }
  std::memset(d, 0, NR * sizeof(float));
}

void pack_weights_fwd(const float* weight, std::size_t out_c, std::size_t k2,
                      float* out) {
  for (std::size_t t = 0; t * MR < out_c; ++t) {
    float* panel = out + t * (MR * k2);
    for (std::size_t p = 0; p < k2; ++p) {
      for (std::size_t i = 0; i < MR; ++i) {
        const std::size_t row = t * MR + i;
        panel[p * MR + i] = row < out_c ? weight[row * k2 + p] : 0.0f;
      }
    }
  }
}

void pack_weights_bwd(const float* weight, std::size_t in_c,
                      std::size_t out_c, std::size_t kernel, float* out) {
  const std::size_t kk = kernel * kernel;
  const std::size_t k2 = in_c * kk;    // forward reduction (weight row len)
  const std::size_t k2b = out_c * kk;  // backward reduction
  const std::size_t cs = MR / bwd_row_group(in_c);  // channels per panel
  for (std::size_t t = 0; t * cs < in_c; ++t) {
    float* panel = out + t * (cs * k2b);
    std::size_t p = 0;
    for (std::size_t tap = 0; tap < kk; ++tap) {
      for (std::size_t oc = 0; oc < out_c; ++oc, ++p) {
        for (std::size_t i = 0; i < cs; ++i) {
          const std::size_t ch = t * cs + i;
          panel[p * cs + i] =
              ch < in_c ? weight[oc * k2 + ch * kk + tap] : 0.0f;
        }
      }
    }
  }
}

void direct_forward(const float* xpad, const float* wpack, const float* bias,
                    std::size_t in_c, std::size_t h, std::size_t w,
                    std::size_t kernel, std::size_t padding,
                    std::size_t out_c, Epilogue epi, float* out) {
  const std::size_t ph = h + 2 * padding, pw = w + 2 * padding;
  const std::size_t oh = ph - kernel + 1, ow = pw - kernel + 1;
  const std::size_t k2 = in_c * kernel * kernel;
  const std::size_t plane = oh * ow;
  // Tap p = c*k*k + ki*k + kj (the im2col row order); the pointer is the
  // tap's position for output pixel (0, 0), later offset by oh*pw + ow
  // (stride 1 makes every output row a contiguous padded-row segment).
  const float* taps[kMaxTaps];
  std::size_t p = 0;
  for (std::size_t c = 0; c < in_c; ++c) {
    for (std::size_t ki = 0; ki < kernel; ++ki) {
      for (std::size_t kj = 0; kj < kernel; ++kj, ++p) {
        taps[p] = xpad + (c * ph + ki) * pw + kj;
      }
    }
  }
  for (std::size_t r = 0; r < oh; ++r) {
    const std::size_t roff = r * pw;
    for (std::size_t j0 = 0; j0 < ow; j0 += NR) {
      const std::size_t nr = std::min(NR, ow - j0);
      for (std::size_t t = 0; t < out_c; t += MR) {
        const std::size_t mr = std::min(MR, out_c - t);
        conv_tile<1>(k2, KC, wpack + (t / MR) * (MR * k2), taps, roff + j0,
                     PixelRows{0, 0, 1}, out + t * plane + r * ow + j0, plane,
                     mr, nr, bias ? bias + t : nullptr, epi);
      }
    }
  }
}

void direct_input_grad(const float* gpad, const float* wpack,
                       std::size_t in_c, std::size_t h, std::size_t w,
                       std::size_t kernel, std::size_t padding,
                       std::size_t out_c, float* dx) {
  const std::size_t gh = h + kernel - 1, gw = w + kernel - 1;
  const std::size_t k2b = out_c * kernel * kernel;
  const std::size_t plane = h * w;
  // dx[c, ih, iw] = sum over taps (ki, kj) ascending — col2im's row
  // order — of the tap's completed out-channel sum. gpad carries
  // pad' = kernel-1-padding of zeros, so dx[ih][iw]'s tap (ki, kj)
  // reads gpad row ih + (kernel-1-ki), col iw + (kernel-1-kj); taps
  // whose unpadded output pixel is out of range read exact +0.0 terms
  // (the taps col2im skips).
  (void)padding;  // absorbed into gpad's pad'
  const float* taps[kMaxTaps];
  std::size_t p = 0;
  for (std::size_t ki = 0; ki < kernel; ++ki) {
    for (std::size_t kj = 0; kj < kernel; ++kj) {
      for (std::size_t oc = 0; oc < out_c; ++oc, ++p) {
        taps[p] =
            gpad + (oc * gh + (kernel - 1 - ki)) * gw + (kernel - 1 - kj);
      }
    }
  }
  // G pixel rows per tile (bwd_row_group), each of C channel slots; the
  // panel of channel tile t holds C weights per reduction index.
  const std::size_t G = bwd_row_group(in_c), C = MR / G;
  static_assert(MR == 6, "row groups below are the divisors of MR");
  const auto tile = G == 6   ? conv_tile<6>
                    : G == 3 ? conv_tile<3>
                    : G == 2 ? conv_tile<2>
                             : conv_tile<1>;
  for (std::size_t r = 0; r < h; r += G) {
    const PixelRows rows{gw, w, std::min(G, h - r)};
    for (std::size_t j0 = 0; j0 < w; j0 += NR) {
      const std::size_t nr = std::min(NR, w - j0);
      for (std::size_t t = 0; t < in_c; t += C) {
        const std::size_t mc = std::min(C, in_c - t);
        tile(k2b, out_c, wpack + (t / C) * (C * k2b), taps, r * gw + j0, rows,
             dx + t * plane + r * w + j0, plane, mc, nr, nullptr,
             Epilogue::None);
      }
    }
  }
}

}  // namespace adv::conv
