#include "tensor/max_pool.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "tensor/tile_row.hpp"

namespace adv {
namespace {

// Any window, one window at a time: the pool's select rule over x (or
// relu(x)), then the ReLU's mask on the winner.
void scalar_windows(const float* x, const float* g, std::size_t planes,
                    std::size_t h, std::size_t w, std::size_t k,
                    bool after_relu, float* dx) {
  const std::size_t oh = h / k, ow = w / k;
  for (std::size_t p = 0; p < planes; ++p) {
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const std::size_t first = i * k * w + j * k;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t at = first;
        for (std::size_t di = 0; di < k; ++di) {
          for (std::size_t dj = 0; dj < k; ++dj) {
            const std::size_t idx = first + di * w + dj;
            const float v =
                after_relu ? (x[idx] > 0.0f ? x[idx] : 0.0f) : x[idx];
            const bool gt = v > best;
            best = gt ? v : best;
            at = gt ? idx : at;
            dx[idx] = 0.0f;
          }
        }
        const bool pass = !after_relu || !(x[at] <= 0.0f);
        dx[at] = pass ? 0.0f + g[i * ow + j] : 0.0f;
      }
    }
    x += h * w;
    dx += h * w;
    g += oh * ow;
  }
}

#if defined(__GNUC__) || defined(__clang__)
// Window 2 at the host vector width, kLanes (tile_row.hpp), or at half
// of it, and so on down to 4 lanes, for rows too short to fill it. Lanes
// are input columns, so lanes 2t and 2t + 1 of one vector of each window
// row hold window t: a vector pair of L lanes covers L / 2 windows, whose
// gradients one half-width load brings in.
template <std::size_t L>
struct Lanes {
  typedef float f __attribute__((vector_size(L * sizeof(float)), aligned(4),
                                 may_alias));
  typedef int i __attribute__((vector_size(L * sizeof(int)), aligned(4),
                               may_alias));
  typedef float half __attribute__((vector_size(L / 2 * sizeof(float)),
                                    aligned(4), may_alias));
};

// L / 2 windows: a and b are the window rows of the pool's input (or of
// the ReLU's entry), g the windows' gradients, da and db the rows of the
// input gradient. I runs over the L lanes.
template <std::size_t L, bool AfterRelu, std::size_t... I>
void window2_vectors(const float* a, const float* b, const float* g,
                     float* da, float* db, std::index_sequence<I...>) {
  using vf = typename Lanes<L>::f;
  using vi = typename Lanes<L>::i;
  const vf zero = {};
  const vf ninf = zero - std::numeric_limits<float>::infinity();
  const vi odd = {-static_cast<int>(I & 1)...};
  const vf xa = *reinterpret_cast<const vf*>(a);
  const vf xb = *reinterpret_cast<const vf*>(b);
  const auto gh = *reinterpret_cast<const typename Lanes<L>::half*>(g);
  const vf gp = __builtin_shufflevector(gh, gh, (I / 2)...);  // g per lane
  // The values the window ranks, with no NaN: relu(x) (sign-exact: +0
  // for x <= 0 and NaN), or x with NaN taken as -inf, which never wins
  // either.
  const vf ra = AfterRelu ? (vf)((vi)xa & (vi)(xa > zero))
                          : (xa > ninf ? xa : ninf);
  const vf rb = AfterRelu ? (vf)((vi)xb & (vi)(xb > zero))
                          : (xb > ninf ? xb : ninf);
  const vf pa = __builtin_shufflevector(ra, ra, (I ^ 1)...);
  const vf pb = __builtin_shufflevector(rb, rb, (I ^ 1)...);
  const vf ma = ra > pa ? ra : pa, mb = rb > pb ? rb : pb;
  const vf m = ma > mb ? ma : mb;  // the window's maximum, in both lanes
  // Without NaN, the first strict maximum in (di, dj) order (a0, a1, b0,
  // b1) is the first element equal to the maximum; a window of -inf
  // alone routes to a0, its first element.
  const vi qa = (vi)(ra == m), qb = (vi)(rb == m);
  const vi qa_pair = __builtin_shufflevector(qa, qa, (I ^ 1)...);
  const vi qb_pair = __builtin_shufflevector(qb, qb, (I ^ 1)...);
  vi wa = qa & ~(odd & qa_pair);
  vi wb = qb & ~(qa | qa_pair) & ~(odd & qb_pair);
  if (AfterRelu) {  // the ReLU passes the winner's gradient where x > 0 or NaN
    wa &= ~(vi)(xa <= zero);
    wb &= ~(vi)(xb <= zero);
  }
  const vi sum = (vi)(zero + gp);  // 0 + g, as the scatter added it
  *reinterpret_cast<vf*>(da) = (vf)(sum & wa);
  *reinterpret_cast<vf*>(db) = (vf)(sum & wb);
}

// Every window row of every plane (h = 2 * oh, so the planes' row pairs
// follow each other), ow >= 2 windows a row. A row's last vector pair
// ends at the row's end, overlapping the one before when L / 2 does not
// divide ow (the shared windows come out the same bits twice), so no
// load or store leaves its row.
template <std::size_t L, bool AfterRelu>
void window2_rows(const float* x, const float* g, std::size_t row_pairs,
                  std::size_t w, float* dx) {
  const std::size_t ow = w / 2;
  if constexpr (L > 4) {
    if (ow < L / 2) {
      return window2_rows<L / 2, AfterRelu>(x, g, row_pairs, w, dx);
    }
  }
  for (std::size_t r = 0; r < row_pairs; ++r) {
    for (std::size_t j = 0; j < ow; j += L / 2) {
      const std::size_t at = std::min(j, ow - L / 2);
      window2_vectors<L, AfterRelu>(x + 2 * at, x + w + 2 * at, g + at,
                                    dx + 2 * at, dx + w + 2 * at,
                                    std::make_index_sequence<L>{});
    }
    x += 2 * w;
    dx += 2 * w;
    g += ow;
  }
}
#endif

}  // namespace

void max_pool_backward(const float* x, const float* g, std::size_t planes,
                       std::size_t h, std::size_t w, std::size_t window,
                       bool after_relu, float* dx) {
#if defined(__GNUC__) || defined(__clang__)
  if (window == 2 && w >= 4) {
    const std::size_t row_pairs = planes * (h / 2);
    if (after_relu) {
      window2_rows<kLanes, true>(x, g, row_pairs, w, dx);
    } else {
      window2_rows<kLanes, false>(x, g, row_pairs, w, dx);
    }
    return;
  }
#endif
  scalar_windows(x, g, planes, h, w, window, after_relu, dx);
}

}  // namespace adv
