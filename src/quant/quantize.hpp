// adv::quant — per-channel int8 inference for trained models.
//
// quantize() clones a trained float Sequential into an int8-executable
// model: Linear/Conv2d become QuantLinear/QuantConv2d running the packed
// u8 x s8 GEMM (tensor/gemm_int8.hpp); activations, pools, Flatten stay
// float and run unchanged between dequant/requant boundaries (Dropout is
// dropped — it is an eval-time identity).
//
// Quantization scheme (DESIGN.md §17):
//   * Weights: per-output-channel symmetric int8. For channel j,
//     s_w[j] = max|W[:, j]| / 127 and Wq = round(W / s_w) in [-127, 127].
//   * Activations: per-tensor symmetric int8, calibrated by a max-abs
//     sweep of the calibration batch through the float model:
//     s_a = max|x| / 127 observed at each quantized layer's input. The
//     quantized value is offset by +128 into uint8 (the u8 x s8 hardware
//     domain); the offset is undone exactly at dequant via the per-column
//     weight sums (y = (acc - 128 * colsum) * s_a * s_w[j] + bias[j]).
//   * Rounding: lrintf (round-to-nearest-even), clamped to [-127, 127].
//   * Accumulation: exact int32 — bit-identical across thread counts and
//     blockings by associativity of integer addition.
//
// Quantized layers are inference-only: backward() throws, Mode::Train is
// rejected. Serialization round-trips through the CRC'd tensor file
// format (save_quantized/load_quantized) with int8 payloads stored as
// exact small integers in float tensors.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace adv {
class ThreadPool;
}  // namespace adv

namespace adv::quant {

/// Mixin interface shared by the quantized layers: int8-state
/// serialization through the float tensor format and the pool test seam
/// (ADV_THREADS pins only the global pool, so thread-count determinism
/// tests pass dedicated pools instead).
class QuantLayer {
 public:
  virtual ~QuantLayer() = default;

  /// Appends this layer's state (meta, quantized weights, scales, bias)
  /// as float tensors. Quantized values are integers in [-127, 127],
  /// exactly representable in float32.
  virtual void export_tensors(std::vector<Tensor>& out) const = 0;

  /// Consumes the tensors export_tensors appended, starting at `cursor`
  /// (advanced past them). Validates shapes against this layer's config
  /// and rebuilds the packed panels. Throws std::runtime_error on
  /// mismatch.
  virtual void import_tensors(const std::vector<Tensor>& in,
                              std::size_t& cursor) = 0;

  /// Pool used by this layer's int8 GEMM; nullptr restores the global
  /// pool. Results are identical for any pool (exact int32 accumulation).
  /// A layer called inside a pool task (e.g. within one of Sequential's
  /// row blocks) runs its pool calls inline, whatever pool is set here.
  virtual void set_pool(ThreadPool* pool) = 0;

  /// Calibrated per-tensor input scale (s_a).
  virtual float act_scale() const = 0;
};

/// Int8 fully connected layer: y = dequant(quant_u8(x) x Wq) + b.
class QuantLinear final : public nn::Layer, public QuantLayer {
 public:
  /// Quantizes `src`'s weights per output column; `act_scale` is the
  /// calibrated per-tensor input scale.
  QuantLinear(const nn::Linear& src, float act_scale);

  std::string name() const override { return "QuantLinear"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  const std::vector<float>& weight_scales() const { return w_scales_; }

  void export_tensors(std::vector<Tensor>& out) const override;
  void import_tensors(const std::vector<Tensor>& in,
                      std::size_t& cursor) override;
  void set_pool(ThreadPool* pool) override { pool_ = pool; }
  float act_scale() const override { return act_scale_; }

 private:
  Tensor forward_impl(const Tensor& input, nn::Mode mode, nn::TapeEntry* saved,
                      nn::Workspace* ws) const override;
  Tensor backward_impl(const Tensor& grad_output, const nn::TapeEntry& saved,
                       nn::GradSlots grads, nn::Workspace* ws) const override;
  void pack();  // rebuilds packed_ and colsum_ from weight_q_

  std::size_t in_ = 0;
  std::size_t out_ = 0;
  std::vector<std::int8_t> weight_q_;  // [in, out] row-major (GEMM B)
  std::vector<std::int8_t> packed_;    // pack_b_s8 panels of weight_q_
  std::vector<std::int32_t> colsum_;   // [out] column sums of weight_q_
  std::vector<float> w_scales_;        // [out]
  std::vector<float> bias_;            // [out]
  float act_scale_ = 1.0f;
  ThreadPool* pool_ = nullptr;
};

/// Int8 convolution: quantized im2row (uint8, zero-point 128 padding)
/// through the packed GEMM against the transposed per-channel weights.
class QuantConv2d final : public nn::Layer, public QuantLayer {
 public:
  QuantConv2d(const nn::Conv2d& src, float act_scale);

  std::string name() const override { return "QuantConv2d"; }

  const nn::Conv2dConfig& config() const { return cfg_; }
  const std::vector<float>& weight_scales() const { return w_scales_; }

  void export_tensors(std::vector<Tensor>& out) const override;
  void import_tensors(const std::vector<Tensor>& in,
                      std::size_t& cursor) override;
  void set_pool(ThreadPool* pool) override { pool_ = pool; }
  float act_scale() const override { return act_scale_; }

 private:
  Tensor forward_impl(const Tensor& input, nn::Mode mode, nn::TapeEntry* saved,
                      nn::Workspace* ws) const override;
  Tensor backward_impl(const Tensor& grad_output, const nn::TapeEntry& saved,
                       nn::GradSlots grads, nn::Workspace* ws) const override;
  void pack();
  std::size_t output_dim(std::size_t in_dim) const;

  nn::Conv2dConfig cfg_;
  std::size_t ckk_ = 0;                // in_channels * kernel^2 (GEMM K)
  std::vector<std::int8_t> weight_q_;  // [ckk, out_c] (transposed, GEMM B)
  std::vector<std::int8_t> packed_;
  std::vector<std::int32_t> colsum_;   // [out_c]
  std::vector<float> w_scales_;        // [out_c]
  std::vector<float> bias_;            // [out_c]
  float act_scale_ = 1.0f;
  ThreadPool* pool_ = nullptr;
};

/// Clones `model` into an int8-executable Sequential. Runs the
/// calibration batch through the float model layer by layer, recording
/// each Linear/Conv2d input's max-abs for its activation scale, then
/// rebuilds the stack with quantized compute layers. Stateless layers are
/// recreated; Dropout is skipped (eval identity); any other layer type
/// throws std::invalid_argument.
nn::Sequential quantize(const nn::Sequential& model, const Tensor& calib);

/// True when `model` contains at least one quantized layer.
bool is_quantized(const nn::Sequential& model);

/// Applies `pool` to every quantized layer (see QuantLayer::set_pool).
void set_pool(nn::Sequential& model, ThreadPool* pool);

/// Saves every quantized layer's state through the CRC'd tensor file
/// format (tensor/serialize.hpp — atomic publish, integrity-checked).
void save_quantized(const std::filesystem::path& path,
                    const nn::Sequential& model);

/// Loads a save_quantized file into a model of the same architecture
/// (e.g. freshly produced by quantize()). Throws std::runtime_error on
/// layer-count or shape mismatch.
void load_quantized(const std::filesystem::path& path,
                    nn::Sequential& model);

}  // namespace adv::quant
