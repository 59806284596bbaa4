// Labeled image dataset: an NCHW tensor plus integer labels, with
// deterministic shuffling and row selection.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace adv::data {

struct Dataset {
  Tensor images;            // [N, C, H, W], pixel values in [0, 1]
  std::vector<int> labels;  // size N, values in [0, num_classes)
  int num_classes = 10;

  std::size_t size() const { return labels.size(); }
  std::size_t channels() const { return images.dim(1); }
  std::size_t height() const { return images.dim(2); }
  std::size_t width() const { return images.dim(3); }

  /// Single image [1, C, H, W].
  Tensor image(std::size_t i) const { return images.slice_rows(i, i + 1); }

  /// Rows [begin, end) as a new dataset.
  Dataset slice(std::size_t begin, std::size_t end) const;

  /// Deterministic in-place permutation of images and labels.
  void shuffle(Rng& rng);

  /// Keeps only samples whose index satisfies `pred(i)`.
  Dataset filter(const std::vector<std::size_t>& indices) const;
};

/// The index order Dataset::shuffle applies to an `n`-row dataset.
std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng);

}  // namespace adv::data
