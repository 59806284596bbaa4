#include "data/dataset.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace adv::data {

Dataset Dataset::slice(std::size_t begin, std::size_t end) const {
  if (begin > end || end > size()) {
    throw std::out_of_range("Dataset::slice: bad range");
  }
  Dataset out;
  out.images = images.slice_rows(begin, end);
  out.labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(begin),
                    labels.begin() + static_cast<std::ptrdiff_t>(end));
  out.num_classes = num_classes;
  return out;
}

std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.uniform_index(i)]);
  }
  return idx;
}

void Dataset::shuffle(Rng& rng) {
  *this = filter(shuffled_indices(size(), rng));
}

Dataset Dataset::filter(const std::vector<std::size_t>& indices) const {
  const std::size_t row = images.numel() / images.dim(0);
  std::vector<std::size_t> dims = images.shape().dims();
  dims[0] = indices.size();
  Dataset out;
  out.images = Tensor{Shape(dims)};
  out.labels.resize(indices.size());
  out.num_classes = num_classes;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t src = indices[i];
    if (src >= size()) throw std::out_of_range("Dataset::filter: bad index");
    std::copy_n(images.data() + src * row, row, out.images.data() + i * row);
    out.labels[i] = labels[src];
  }
  return out;
}

}  // namespace adv::data
