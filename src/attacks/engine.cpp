#include "attacks/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace adv::attacks {

ActiveSet::ActiveSet(std::size_t n) : flags_(n, 1), indices_(n) {
  std::iota(indices_.begin(), indices_.end(), std::size_t{0});
}

void ActiveSet::retire(std::size_t i) {
  if (i >= flags_.size() || !flags_[i]) return;
  flags_[i] = 0;
  indices_.erase(std::lower_bound(indices_.begin(), indices_.end(), i));
}

void ActiveSet::reset() {
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{1});
  indices_.resize(flags_.size());
  std::iota(indices_.begin(), indices_.end(), std::size_t{0});
}

const Tensor& ActiveSet::pick(const Tensor& full, Tensor& storage) const {
  if (all_active()) return full;
  storage = gather_rows(full, indices_);
  return storage;
}

void ActiveSet::record_passes(EngineStats& stats, std::size_t count) const {
  stats.passes_saved += count * (size() - active_count());
}

PlateauDetector::PlateauDetector(std::size_t n, std::size_t window,
                                 float rel_tol)
    : window_(window),
      rel_tol_(rel_tol),
      best_(n, std::numeric_limits<float>::infinity()),
      stale_(n, 0) {}

bool PlateauDetector::observe(std::size_t i, float value) {
  if (window_ == 0) return false;
  // "Improved" means strictly better than best by a relative margin, so a
  // row grinding out sub-tolerance gains still retires. The first finite
  // value always improves (inf - rel_tol*|inf| is NaN, which would compare
  // false and silently eat one window slot).
  if (!std::isfinite(best_[i]) ||
      value < best_[i] - rel_tol_ * std::fabs(best_[i])) {
    best_[i] = value;
    stale_[i] = 0;
    return false;
  }
  return ++stale_[i] >= window_;
}

void PlateauDetector::reset() {
  std::fill(best_.begin(), best_.end(),
            std::numeric_limits<float>::infinity());
  std::fill(stale_.begin(), stale_.end(), 0u);
}

void EngineStats::flush(const std::string& attack_name) const {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("attack/" + attack_name + "/rows_retired").add(rows_retired);
  reg.counter("attack/" + attack_name + "/passes_saved").add(passes_saved);
}

Tensor gather_rows(const Tensor& batch, const std::vector<std::size_t>& idx) {
  if (batch.rank() == 0 || batch.dim(0) == 0) {
    throw std::invalid_argument("gather_rows: empty batch");
  }
  const std::size_t n = batch.dim(0);
  const std::size_t row = batch.numel() / n;
  std::vector<std::size_t> dims = batch.shape().dims();
  dims[0] = idx.size();
  Tensor out{Shape(dims)};
  float* dst = out.data();
  for (std::size_t a = 0; a < idx.size(); ++a) {
    if (idx[a] >= n) throw std::out_of_range("gather_rows: index");
    std::memcpy(dst + a * row, batch.data() + idx[a] * row,
                row * sizeof(float));
  }
  return out;
}

void scatter_rows(const Tensor& sub, const std::vector<std::size_t>& idx,
                  Tensor& batch) {
  if (sub.rank() == 0 || sub.dim(0) != idx.size()) {
    throw std::invalid_argument("scatter_rows: sub/index mismatch");
  }
  const std::size_t n = batch.dim(0);
  const std::size_t row = batch.numel() / n;
  if (sub.numel() != idx.size() * row) {
    throw std::invalid_argument("scatter_rows: row size mismatch");
  }
  float* dst = batch.data();
  for (std::size_t a = 0; a < idx.size(); ++a) {
    if (idx[a] >= n) throw std::out_of_range("scatter_rows: index");
    std::memcpy(dst + idx[a] * row, sub.data() + a * row,
                row * sizeof(float));
  }
}

}  // namespace adv::attacks
