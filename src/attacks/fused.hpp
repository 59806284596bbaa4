// Fused single-pass elementwise kernels for the attack update loops.
//
// The EAD ISTA step used to be three passes over the batch (regularizer
// gradient add, y - lr*grad copy+axpy, shrink_project), and the I-FGSM
// update chained a sign step with two clamps; each pass re-streamed the
// whole active batch through memory. The kernels here do the identical
// arithmetic in one pass — same scalar expressions, same order, same
// translation-unit ISA regime as the separate loops — so the results are
// bitwise identical (asserted per element, NaN, ±0, ±inf and ties
// included, in attack_properties_test, and re-gated through the engine
// identity gates in CI).
//
// Both loops are branch-free (DESIGN.md §6): every arm is computed into a
// named float and a ternary over values picks one, and the moved flag is
// an integer OR-reduction, so GCC vectorizes them at the baseline ISA.
// Each `for` line carries a `// ci:vectorized` marker that tools/ci.sh
// holds to the compiler's vectorization report.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace adv::attacks {

/// One fused ISTA step: for each element,
///   g   = grad + 2*(y - x0)          (elastic-net regularizer gradient)
///   z   = y + (-lr)*g                (gradient step)
///   out = S_beta(z) clipped to [0,1] (shrink_project)
/// Bitwise equal to the former grad-add + axpy_inplace + shrink_project
/// sequence. out is (re)shaped like y and fully overwritten; grad is not
/// modified.
void fused_ista_step(const Tensor& y, const Tensor& grad, const Tensor& x0,
                     float lr, float beta, Tensor& out);

/// One fused I-FGSM row update: x += step*sign(g), projected into the
/// eps-ball around x0 and then into [0,1], in a single pass. Returns
/// true when any element changed bitwise (false means the row is at a
/// fixed point and can retire). Identical arithmetic to the former
/// three-expression loop.
bool fused_sign_step(float* x, const float* grad, const float* x0,
                     std::size_t row, float step, float epsilon);

}  // namespace adv::attacks
