#include "attacks/engine.hpp"

#include <algorithm>
#include <cstring>
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

const Tensor& ActiveSet::pick(const Tensor& full, Tensor& storage) const {
  if (all_active()) return full;
  storage = gather_rows(full, indices_);
  return storage;
}

void ActiveSet::record_passes(EngineStats& stats, std::size_t count) const {
  stats.passes_saved += count * (size() - active_count());
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

}  // namespace adv::attacks
