// Tensor: a dense, contiguous, row-major float32 array with value
// semantics. This is the only numeric container used by the library.
//
// Conventions:
//   * Image batches are NCHW: [batch, channels, height, width].
//   * Matrices are [rows, cols].
//   * A default-constructed Tensor is empty (rank 0, 0 elements).
//
// Copies are deep; moves are O(1). Element access is bounds-checked in
// debug builds only (ADV_CHECK), keeping Release hot loops tight.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tensor/shape.hpp"

#ifndef NDEBUG
#define ADV_CHECK(cond, msg) \
  do {                       \
    assert((cond) && msg);   \
  } while (0)
#else
#define ADV_CHECK(cond, msg) ((void)0)
#endif

namespace adv {

class Tensor {
 public:
  Tensor() = default;

  /// Allocates `shape.numel()` elements initialized to `fill`.
  explicit Tensor(Shape shape, float fill = 0.0f)
      : shape_(std::move(shape)), data_(shape_.numel(), fill) {}

  Tensor(std::initializer_list<std::size_t> dims, float fill = 0.0f)
      : Tensor(Shape(dims), fill) {}

  /// Adopts existing data. Throws std::invalid_argument on size mismatch.
  static Tensor from_data(Shape shape, std::vector<float> data);

  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.rank(); }
  std::size_t dim(std::size_t i) const { return shape_[i]; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> values() { return data_; }
  std::span<const float> values() const { return data_; }

  float& operator[](std::size_t i) {
    ADV_CHECK(i < data_.size(), "flat index out of range");
    return data_[i];
  }
  float operator[](std::size_t i) const {
    ADV_CHECK(i < data_.size(), "flat index out of range");
    return data_[i];
  }

  /// 2-D access: [rows, cols].
  float& at(std::size_t r, std::size_t c) {
    ADV_CHECK(rank() == 2, "at(r,c) requires rank 2");
    ADV_CHECK(r < shape_[0] && c < shape_[1], "2-D index out of range");
    return data_[r * shape_[1] + c];
  }
  float at(std::size_t r, std::size_t c) const {
    return const_cast<Tensor*>(this)->at(r, c);
  }

  /// 4-D access: NCHW.
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    ADV_CHECK(rank() == 4, "at(n,c,h,w) requires rank 4");
    ADV_CHECK(n < shape_[0] && c < shape_[1] && h < shape_[2] && w < shape_[3],
              "4-D index out of range");
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    return const_cast<Tensor*>(this)->at(n, c, h, w);
  }

  /// Returns a tensor sharing no storage but viewing the same values with a
  /// new shape. Throws std::invalid_argument if numel differs.
  Tensor reshaped(Shape new_shape) const;

  /// In-place reshape (numel must match).
  void reshape(Shape new_shape);

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Extracts rows [begin, end) of the leading dimension as a new tensor.
  Tensor slice_rows(std::size_t begin, std::size_t end) const;

  /// Writes `rows` into rows starting at `begin` of the leading dimension.
  void set_rows(std::size_t begin, const Tensor& rows);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string shape_string() const { return shape_.to_string(); }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace adv
