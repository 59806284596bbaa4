#include "attacks/fused.hpp"

#include <algorithm>
#include <stdexcept>

namespace adv::attacks {

void fused_ista_step(const Tensor& y, const Tensor& grad, const Tensor& x0,
                     float lr, float beta, Tensor& out) {
  if (!y.same_shape(grad) || !y.same_shape(x0)) {
    throw std::invalid_argument("fused_ista_step: shape mismatch");
  }
  if (!out.same_shape(y)) out = Tensor(y.shape());
  const float* py = y.data();
  const float* pg = grad.data();
  const float* p0 = x0.data();
  float* po = out.data();
  for (std::size_t i = 0, n = y.numel(); i < n; ++i) {  // ci:vectorized
    // Keeping each intermediate in a named float reproduces the rounding
    // of the former store-to-memory passes exactly (no excess precision).
    // Both shrinkage arms are computed unconditionally and picked by a
    // select over values (DESIGN.md §6), so the loop has no branch.
    const float x0i = p0[i];
    const float g = pg[i] + 2.0f * (py[i] - x0i);
    const float z = py[i] + (-lr) * g;
    const float diff = z - x0i;
    const float up = std::min(z - beta, 1.0f);
    const float dn = std::max(z + beta, 0.0f);
    po[i] = diff > beta ? up : (diff < -beta ? dn : x0i);
  }
}

bool fused_sign_step(float* x, const float* grad, const float* x0,
                     std::size_t row, float step, float epsilon) {
  int moved = 0;
  for (std::size_t d = 0; d < row; ++d) {  // ci:vectorized
    // sign(g) as a difference of two selects: +0 for a zero or NaN g.
    const float g = grad[d];
    const float s = (g > 0.0f ? 1.0f : 0.0f) - (g < 0.0f ? 1.0f : 0.0f);
    const float xd = x[d];
    float v = xd + step * s;
    // Project back into the eps-ball around x0, then into [0,1].
    v = std::clamp(v, x0[d] - epsilon, x0[d] + epsilon);
    v = std::clamp(v, 0.0f, 1.0f);
    moved |= v != xd;
    x[d] = v;
  }
  return moved != 0;
}

}  // namespace adv::attacks
