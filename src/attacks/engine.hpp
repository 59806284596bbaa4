// Active-set attack engine: shared machinery that lets the iterative
// attacks whose rows finish at different times (I-FGSM at a fixed point
// of its sign step, DeepFool once a row is fooled) stop paying model
// passes for batch rows that no longer need them. EAD and C&W-L2 run every
// row for the full schedule and do not use it.
//
// Two cooperating pieces:
//   * ActiveSet — an index map of still-active rows. Every iteration the
//     attacks gather the active rows into a dense sub-batch, run the model
//     on it, and write the results back through indices(). Because every
//     layer in this library is per-row independent (conv/GEMM accumulate
//     each output element over a fixed reduction order that does not
//     depend on the batch size), a row's forward/backward values are
//     bitwise identical whether it is passed alone, in a compacted
//     sub-batch, or in the full batch — so compaction is an observable
//     no-op and there is no other path.
//   * EngineStats — counters flushed to adv::obs under
//     "attack/<name>/rows_retired" and "attack/<name>/passes_saved"
//     (row-passes avoided relative to running the same schedule on the
//     full batch every iteration).
//
// ActiveSet::pick (over the gather helpers below) is the only way attacks
// move rows into sub-batches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace adv::attacks {

/// Counters one attack run accumulates and flushes to adv::obs.
struct EngineStats {
  std::size_t rows_retired = 0;  // rows removed from the active set
  std::size_t passes_saved = 0;  // row-passes avoided via compaction

  /// Adds the counters to "attack/<name>/rows_retired" and
  /// "attack/<name>/passes_saved" (no-op when obs is disabled).
  void flush(const std::string& attack_name) const;
};

/// Index map over the rows of a batch that still need model passes.
/// Starts with every row active; retire() removes rows one at a time.
/// indices() stays sorted ascending, so gathered sub-batches preserve the
/// original row order: row `a` of a pick()'d batch is global row
/// indices()[a]. All model traffic — including through composed
/// AttackTargets — flows through pick()'d tensors, so compaction never
/// bypasses the target abstraction. retire() mutates indices(): attacks
/// collect an iteration's retirements and apply them after that
/// iteration's last use of the indices.
class ActiveSet {
 public:
  explicit ActiveSet(std::size_t n);

  std::size_t size() const { return flags_.size(); }
  std::size_t active_count() const { return indices_.size(); }
  bool all_active() const { return indices_.size() == flags_.size(); }
  bool none_active() const { return indices_.empty(); }

  /// Sorted global indices of the active rows.
  const std::vector<std::size_t>& indices() const { return indices_; }

  /// Removes row i (no-op if already retired).
  void retire(std::size_t i);

  /// Returns the batch the model should see: `full` itself while every
  /// row is active, else a gather of the active rows materialized into
  /// `storage`.
  const Tensor& pick(const Tensor& full, Tensor& storage) const;
  template <typename T>
  const std::vector<T>& pick(const std::vector<T>& full,
                             std::vector<T>& storage) const;

  /// Credits `count` model passes run over the active rows.
  void record_passes(EngineStats& stats, std::size_t count) const;

 private:
  std::vector<std::uint8_t> flags_;
  std::vector<std::size_t> indices_;
};

/// Copies rows `idx` of `batch` (leading dim = rows) into a dense
/// [idx.size(), ...] tensor, preserving order.
Tensor gather_rows(const Tensor& batch, const std::vector<std::size_t>& idx);

/// gather_rows for flat per-row metadata (labels, weights, ...).
template <typename T>
std::vector<T> gather(const std::vector<T>& v,
                      const std::vector<std::size_t>& idx) {
  std::vector<T> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(v[i]);
  return out;
}

template <typename T>
const std::vector<T>& ActiveSet::pick(const std::vector<T>& full,
                                      std::vector<T>& storage) const {
  if (all_active()) return full;
  storage = gather(full, indices_);
  return storage;
}

}  // namespace adv::attacks
