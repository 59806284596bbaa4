#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adv {
namespace {

void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape_string() + " vs " + b.shape_string());
  }
}

}  // namespace

void add_inplace(Tensor& dst, const Tensor& src) {
  require_same_shape(dst, src, "add_inplace");
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0, n = dst.numel(); i < n; ++i) d[i] += s[i];
}

void sub_inplace(Tensor& dst, const Tensor& src) {
  require_same_shape(dst, src, "sub_inplace");
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0, n = dst.numel(); i < n; ++i) d[i] -= s[i];
}

void mul_inplace(Tensor& dst, const Tensor& src) {
  require_same_shape(dst, src, "mul_inplace");
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0, n = dst.numel(); i < n; ++i) d[i] *= s[i];
}

void scale_inplace(Tensor& dst, float s) {
  float* d = dst.data();
  for (std::size_t i = 0, n = dst.numel(); i < n; ++i) d[i] *= s;
}

void axpy_inplace(Tensor& dst, float a, const Tensor& x) {
  require_same_shape(dst, x, "axpy_inplace");
  float* d = dst.data();
  const float* s = x.data();
  for (std::size_t i = 0, n = dst.numel(); i < n; ++i) d[i] += a * s[i];
}

void clamp_inplace(Tensor& dst, float lo, float hi) {
  float* d = dst.data();
  for (std::size_t i = 0, n = dst.numel(); i < n; ++i) {
    d[i] = std::clamp(d[i], lo, hi);
  }
}

void apply_inplace(Tensor& dst, const std::function<float(float)>& f) {
  float* d = dst.data();
  for (std::size_t i = 0, n = dst.numel(); i < n; ++i) d[i] = f(d[i]);
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  add_inplace(out, b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  sub_inplace(out, b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  mul_inplace(out, b);
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out, s);
  return out;
}

Tensor stack_rows(const std::vector<Tensor>& parts) {
  std::vector<std::size_t> dims = parts.front().shape().dims();
  dims[0] = 0;
  for (const Tensor& part : parts) dims[0] += part.dim(0);
  Tensor out{Shape(dims)};
  std::size_t row = 0;
  for (const Tensor& part : parts) {
    out.set_rows(row, part);
    row += part.dim(0);
  }
  return out;
}

float sum(const Tensor& a) {
  // Accumulate in double for stability over large tensors.
  double acc = 0.0;
  for (const float v : a.values()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  if (a.empty()) throw std::invalid_argument("mean: empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float min_value(const Tensor& a) {
  if (a.empty()) throw std::invalid_argument("min_value: empty tensor");
  return *std::min_element(a.values().begin(), a.values().end());
}

float max_value(const Tensor& a) {
  if (a.empty()) throw std::invalid_argument("max_value: empty tensor");
  return *std::max_element(a.values().begin(), a.values().end());
}

float norm_l1(const Tensor& a) {
  double acc = 0.0;
  for (const float v : a.values()) acc += std::fabs(v);
  return static_cast<float>(acc);
}

float norm_l2(const Tensor& a) {
  double acc = 0.0;
  for (const float v : a.values()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float norm_linf(const Tensor& a) {
  float m = 0.0f;
  for (const float v : a.values()) m = std::max(m, std::fabs(v));
  return m;
}

std::size_t argmax(const Tensor& a) {
  if (a.empty()) throw std::invalid_argument("argmax: empty tensor");
  return static_cast<std::size_t>(
      std::max_element(a.values().begin(), a.values().end()) -
      a.values().begin());
}

std::size_t argmax_row(const Tensor& a, std::size_t r) {
  if (a.rank() != 2) throw std::invalid_argument("argmax_row: rank != 2");
  if (r >= a.dim(0)) throw std::out_of_range("argmax_row: row out of range");
  const std::size_t cols = a.dim(1);
  const float* p = a.data() + r * cols;
  return static_cast<std::size_t>(std::max_element(p, p + cols) - p);
}

float l1_distance(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "l1_distance");
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0, n = a.numel(); i < n; ++i) {
    acc += std::fabs(static_cast<double>(pa[i]) - pb[i]);
  }
  return static_cast<float>(acc);
}

float l2_distance(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "l2_distance");
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0, n = a.numel(); i < n; ++i) {
    const double d = static_cast<double>(pa[i]) - pb[i];
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc));
}

float linf_distance(const Tensor& a, const Tensor& b) {
  require_same_shape(a, b, "linf_distance");
  float m = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0, n = a.numel(); i < n; ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

void fill_uniform(Tensor& t, Rng& rng, float lo, float hi) {
  for (float& v : t.values()) v = rng.uniform_f(lo, hi);
}

void fill_normal(Tensor& t, Rng& rng, float mean, float stddev) {
  for (float& v : t.values()) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
}

}  // namespace adv
