#include "tensor/workspace.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"

namespace adv {

Tensor Workspace::acquire(const Shape& shape, bool zeroed) {
  const std::size_t n = shape.numel();
  if (n == 0) return Tensor();
  std::vector<float> buf;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (enabled_) {
      auto it = free_.find(shape.dims());
      if (it != free_.end() && !it->second.empty()) {
        buf = std::move(it->second.back());
        it->second.pop_back();
        ++reuses_;
        bytes_reused_ += n * sizeof(float);
        pooled_bytes_ -= n * sizeof(float);
      }
    }
    if (buf.empty()) ++misses_;
  }
  if (buf.empty()) return Tensor(shape);  // zero-filled by construction
  if (zeroed) std::memset(buf.data(), 0, n * sizeof(float));
  if (obs::enabled()) {
    static auto& reused =
        obs::MetricsRegistry::global().counter("workspace/bytes_reused");
    reused.add(n * sizeof(float));
  }
  return Tensor::from_data(shape, std::move(buf));
}

void Workspace::release(Tensor&& t) {
  if (t.empty()) return;
  const std::size_t n = t.numel();
  std::vector<std::size_t> dims = t.shape().dims();
  std::vector<float> buf = std::move(t).take_data();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return;  // drop: baseline allocation profile
  auto& list = free_[std::move(dims)];
  if (list.size() < kMaxPooledPerShape) {
    list.push_back(std::move(buf));
    pooled_bytes_ += n * sizeof(float);
    high_water_bytes_ = std::max(high_water_bytes_, pooled_bytes_);
  }
}

void Workspace::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = on;
  if (!on) {
    free_.clear();
    pooled_bytes_ = 0;
    high_water_bytes_ = 0;
  }
}

bool Workspace::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

void Workspace::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.clear();
  pooled_bytes_ = 0;
  high_water_bytes_ = 0;
}

void Workspace::trim(double high_water_frac) {
  high_water_frac = std::clamp(high_water_frac, 0.0, 1.0);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto target = static_cast<std::uint64_t>(
      static_cast<double>(high_water_bytes_) * high_water_frac);
  if (pooled_bytes_ > target) {
    // Drop largest shapes first: the peak-batch spike goes before the
    // steady-state buffers the next epoch will want back.
    std::vector<std::vector<std::size_t>> keys;
    keys.reserve(free_.size());
    for (const auto& [dims, list] : free_) {
      (void)list;
      keys.push_back(dims);
    }
    const auto bytes_of = [](const std::vector<std::size_t>& dims) {
      std::size_t n = 1;
      for (const std::size_t d : dims) n *= d;
      return n * sizeof(float);
    };
    std::sort(keys.begin(), keys.end(),
              [&](const auto& a, const auto& b) {
                return bytes_of(a) > bytes_of(b);
              });
    for (const auto& key : keys) {
      auto it = free_.find(key);
      if (it == free_.end()) continue;
      const std::size_t per_buffer = bytes_of(key);
      while (!it->second.empty() && pooled_bytes_ > target) {
        it->second.pop_back();
        pooled_bytes_ -= per_buffer;
      }
      if (it->second.empty()) free_.erase(it);
      if (pooled_bytes_ <= target) break;
    }
  }
  high_water_bytes_ = pooled_bytes_;
}

std::uint64_t Workspace::reuses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reuses_;
}

std::uint64_t Workspace::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t Workspace::bytes_reused() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_reused_;
}

std::size_t Workspace::pooled_buffers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [dims, list] : free_) {
    (void)dims;
    n += list.size();
  }
  return n;
}

std::uint64_t Workspace::pooled_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pooled_bytes_;
}

std::uint64_t Workspace::high_water_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_bytes_;
}

}  // namespace adv
