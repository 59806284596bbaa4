// Element-wise and reduction operations on Tensors.
//
// Free functions keep Tensor itself minimal. Shapes must match exactly for
// binary ops (no broadcasting; the layers that need broadcasting — e.g.
// bias addition — implement it explicitly where the loop structure is
// clearer anyway). All functions validate shapes and throw
// std::invalid_argument on mismatch.
#pragma once

#include <functional>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace adv {

// --- in-place ---------------------------------------------------------
void add_inplace(Tensor& dst, const Tensor& src);         // dst += src
void sub_inplace(Tensor& dst, const Tensor& src);         // dst -= src
void mul_inplace(Tensor& dst, const Tensor& src);         // dst *= src (Hadamard)
void scale_inplace(Tensor& dst, float s);                 // dst *= s
void axpy_inplace(Tensor& dst, float a, const Tensor& x); // dst += a * x
void clamp_inplace(Tensor& dst, float lo, float hi);
void apply_inplace(Tensor& dst, const std::function<float(float)>& f);

// --- value-returning --------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
/// Concatenates non-empty `parts` along the leading (row) dimension, in
/// order; every part has the same trailing dims.
Tensor stack_rows(const std::vector<Tensor>& parts);

// --- reductions -------------------------------------------------------
float sum(const Tensor& a);
float mean(const Tensor& a);
float min_value(const Tensor& a);
float max_value(const Tensor& a);
/// Lp norm of the flattened tensor, p in {1, 2, inf (use p_inf)}.
float norm_l1(const Tensor& a);
float norm_l2(const Tensor& a);
float norm_linf(const Tensor& a);
/// Index of the maximum element (first on ties).
std::size_t argmax(const Tensor& a);
/// Argmax of row `r` of a rank-2 tensor.
std::size_t argmax_row(const Tensor& a, std::size_t r);

// --- distortion metrics between two equal-shape tensors ---------------
float l1_distance(const Tensor& a, const Tensor& b);
float l2_distance(const Tensor& a, const Tensor& b);
float linf_distance(const Tensor& a, const Tensor& b);

// --- random fills -----------------------------------------------------
void fill_uniform(Tensor& t, Rng& rng, float lo, float hi);
void fill_normal(Tensor& t, Rng& rng, float mean, float stddev);

}  // namespace adv
