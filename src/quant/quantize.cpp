#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "nn/activations.hpp"
#include "nn/pool.hpp"
#include "nn/structural.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/serialize.hpp"
#include "tensor/thread_pool.hpp"

namespace adv::quant {
namespace {

constexpr float kQmax = 127.0f;
// Activation zero-point: symmetric int8 values shifted into the uint8
// domain the u8 x s8 dot-product hardware expects. Undone at dequant via
// the packed weights' column sums.
constexpr std::int32_t kActOffset = 128;

obs::Counter& quant_rows_counter() {
  static auto& c = obs::MetricsRegistry::global().counter("quant/rows");
  return c;
}

float safe_scale(float max_abs) {
  return max_abs > 0.0f ? max_abs / kQmax : 1.0f;
}

std::int8_t quantize_one(float v, float inv_scale) {
  const long q = std::lrintf(v * inv_scale);
  return static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
}

/// Per-tensor max-abs of a float buffer.
float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (const float v : t.values()) m = std::max(m, std::fabs(v));
  return m;
}

void check_inference_mode(nn::Mode mode, const char* layer) {
  if (mode == nn::Mode::Train) {
    throw std::runtime_error(std::string(layer) +
                             ": quantized layers are inference-only");
  }
}

[[noreturn]] void throw_no_backward(const char* layer) {
  throw std::runtime_error(std::string(layer) +
                           ": quantized layers have no backward pass");
}

Tensor meta_tensor(std::initializer_list<float> vals) {
  Tensor t({vals.size()});
  std::size_t i = 0;
  for (const float v : vals) t[i++] = v;
  return t;
}

const Tensor& take(const std::vector<Tensor>& in, std::size_t& cursor,
                   const char* what) {
  if (cursor >= in.size()) {
    throw std::runtime_error(std::string("load_quantized: missing ") + what);
  }
  return in[cursor++];
}

void expect_shape(const Tensor& t, const Shape& shape, const char* what) {
  if (!(t.shape() == shape)) {
    throw std::runtime_error(std::string("load_quantized: ") + what +
                             " shape mismatch: got " + t.shape_string() +
                             ", want " + shape.to_string());
  }
}

std::vector<std::int8_t> floats_to_s8(const Tensor& t, const char* what) {
  std::vector<std::int8_t> out(t.numel());
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const float v = t[i];
    if (v < -127.0f || v > 127.0f || v != std::nearbyintf(v)) {
      throw std::runtime_error(std::string("load_quantized: ") + what +
                               " holds a non-int8 value");
    }
    out[i] = static_cast<std::int8_t>(v);
  }
  return out;
}

Tensor s8_to_floats(const std::vector<std::int8_t>& v, Shape shape) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < v.size(); ++i) {
    t[i] = static_cast<float>(v[i]);
  }
  return t;
}

Tensor vec_to_tensor(const std::vector<float>& v) {
  Tensor t({v.size()});
  std::memcpy(t.data(), v.data(), v.size() * sizeof(float));
  return t;
}

std::vector<float> tensor_to_vec(const Tensor& t) {
  return {t.values().begin(), t.values().end()};
}

/// Gathers one (channel, ky) source row of a quantized image into the
/// strided k-byte segments of its im2row block: dst0[ox * ckk + t] =
/// src[ox * stride - pad + t], out-of-range taps at pad_byte. KT > 0 is a
/// compile-time kernel width (the inner copy fully unrolls — k is 3..5
/// here, so the runtime-k loop's bounds checks would dominate); KT == 0
/// falls back to runtime k. The ox range is split into edge spans (clamped
/// per tap) and the interior (straight unrolled copies, no bounds checks).
template <std::size_t KT>
void gather_taps(const std::uint8_t* src, std::size_t k, std::size_t w,
                 std::size_t ow, std::size_t stride, std::size_t pad,
                 std::size_t ckk, std::uint8_t* dst0, std::uint8_t pad_byte) {
  const std::size_t kk = KT ? KT : k;
  const auto edge = [&](std::size_t ox) {
    std::uint8_t* dst = dst0 + ox * ckk;
    const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * stride) -
                               static_cast<std::ptrdiff_t>(pad);
    for (std::size_t t = 0; t < kk; ++t) {
      const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(t);
      dst[t] = (ix >= 0 && ix < static_cast<std::ptrdiff_t>(w))
                   ? src[ix]
                   : pad_byte;
    }
  };
  // Interior iff ox*stride - pad >= 0 and ox*stride - pad + k <= w.
  std::size_t begin = pad == 0 ? 0 : (pad + stride - 1) / stride;
  std::size_t end = w + pad >= kk ? (w + pad - kk) / stride + 1 : 0;
  begin = std::min(begin, ow);
  end = std::min(std::max(end, begin), ow);
  for (std::size_t ox = 0; ox < begin; ++ox) edge(ox);
  const std::uint8_t* s = src + begin * stride - pad;
  std::uint8_t* d = dst0 + begin * ckk;
  for (std::size_t ox = begin; ox < end; ++ox, s += stride, d += ckk) {
    for (std::size_t t = 0; t < kk; ++t) d[t] = s[t];
  }
  for (std::size_t ox = end; ox < ow; ++ox) edge(ox);
}

}  // namespace

// --- QuantLinear ---------------------------------------------------------

QuantLinear::QuantLinear(const nn::Linear& src, float act_scale)
    : in_(src.in_features()),
      out_(src.out_features()),
      act_scale_(act_scale) {
  const Tensor& w = src.weight();  // [in, out]
  weight_q_.resize(in_ * out_);
  w_scales_.resize(out_);
  for (std::size_t j = 0; j < out_; ++j) {
    float m = 0.0f;
    for (std::size_t i = 0; i < in_; ++i) {
      m = std::max(m, std::fabs(w.at(i, j)));
    }
    w_scales_[j] = safe_scale(m);
    const float inv = 1.0f / w_scales_[j];
    for (std::size_t i = 0; i < in_; ++i) {
      weight_q_[i * out_ + j] = quantize_one(w.at(i, j), inv);
    }
  }
  bias_ = tensor_to_vec(src.bias());
  pack();
}

void QuantLinear::pack() {
  packed_.resize(packed_b_int8_size(in_, out_));
  pack_b_s8(weight_q_.data(), in_, out_, packed_.data());
  colsum_.resize(out_);
  colsum_s8(weight_q_.data(), in_, out_, colsum_.data());
}

Tensor QuantLinear::forward_impl(const Tensor& input, nn::Mode mode,
                                 nn::TapeEntry* /*saved*/,
                                 nn::Workspace* ws) const {
  check_inference_mode(mode, "QuantLinear");
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("QuantLinear: expected [N, " +
                                std::to_string(in_) + "], got " +
                                input.shape_string());
  }
  obs::ScopedTimer t("quant/linear/forward");
  const std::size_t n = input.dim(0);
  if (obs::enabled()) quant_rows_counter().add(n);
  std::vector<std::uint8_t> a_q(n * in_);
  quantize_u8(input.data(), n * in_, 1.0f / act_scale_, a_q.data());
  std::vector<std::int32_t> acc(n * out_);
  GemmOpts opts;
  opts.pool = pool_;
  gemm_u8s8_packed(a_q.data(), packed_.data(), acc.data(), n, in_, out_,
                   opts);
  Tensor out = make_buffer(ws, {n, out_});
  dequant_rows(acc.data(), colsum_.data(), w_scales_.data(), bias_.data(),
               act_scale_, n, out_, out.data());
  return out;
}

Tensor QuantLinear::backward_impl(const Tensor&, const nn::TapeEntry&,
                                  nn::GradSlots, nn::Workspace*) const {
  throw_no_backward("QuantLinear");
}

void QuantLinear::export_tensors(std::vector<Tensor>& out) const {
  out.push_back(meta_tensor({static_cast<float>(in_),
                             static_cast<float>(out_), act_scale_}));
  out.push_back(s8_to_floats(weight_q_, Shape({in_, out_})));
  out.push_back(vec_to_tensor(w_scales_));
  out.push_back(vec_to_tensor(bias_));
}

void QuantLinear::import_tensors(const std::vector<Tensor>& in,
                                 std::size_t& cursor) {
  const Tensor& meta = take(in, cursor, "QuantLinear meta");
  expect_shape(meta, Shape({3}), "QuantLinear meta");
  if (meta[0] != static_cast<float>(in_) ||
      meta[1] != static_cast<float>(out_)) {
    throw std::runtime_error("load_quantized: QuantLinear feature mismatch");
  }
  const Tensor& wq = take(in, cursor, "QuantLinear weights");
  expect_shape(wq, Shape({in_, out_}), "QuantLinear weights");
  const Tensor& ws = take(in, cursor, "QuantLinear scales");
  expect_shape(ws, Shape({out_}), "QuantLinear scales");
  const Tensor& b = take(in, cursor, "QuantLinear bias");
  expect_shape(b, Shape({out_}), "QuantLinear bias");
  act_scale_ = meta[2];
  weight_q_ = floats_to_s8(wq, "QuantLinear weights");
  w_scales_ = tensor_to_vec(ws);
  bias_ = tensor_to_vec(b);
  pack();
}

// --- QuantConv2d ---------------------------------------------------------

QuantConv2d::QuantConv2d(const nn::Conv2d& src, float act_scale)
    : cfg_(src.config()), act_scale_(act_scale) {
  ckk_ = cfg_.in_channels * cfg_.kernel * cfg_.kernel;
  const Tensor& w = src.weight();  // [out_c, ckk]
  const std::size_t oc = cfg_.out_channels;
  weight_q_.resize(ckk_ * oc);
  w_scales_.resize(oc);
  for (std::size_t j = 0; j < oc; ++j) {
    float m = 0.0f;
    for (std::size_t p = 0; p < ckk_; ++p) {
      m = std::max(m, std::fabs(w.at(j, p)));
    }
    w_scales_[j] = safe_scale(m);
    const float inv = 1.0f / w_scales_[j];
    // Stored transposed: [ckk, out_c], the GEMM's B operand.
    for (std::size_t p = 0; p < ckk_; ++p) {
      weight_q_[p * oc + j] = quantize_one(w.at(j, p), inv);
    }
  }
  bias_ = tensor_to_vec(src.bias());
  pack();
}

void QuantConv2d::pack() {
  const std::size_t oc = cfg_.out_channels;
  packed_.resize(packed_b_int8_size(ckk_, oc));
  pack_b_s8(weight_q_.data(), ckk_, oc, packed_.data());
  colsum_.resize(oc);
  colsum_s8(weight_q_.data(), ckk_, oc, colsum_.data());
}

std::size_t QuantConv2d::output_dim(std::size_t in_dim) const {
  const std::size_t padded = in_dim + 2 * cfg_.padding;
  if (padded < cfg_.kernel) {
    throw std::invalid_argument("QuantConv2d: kernel exceeds padded input");
  }
  return (padded - cfg_.kernel) / cfg_.stride + 1;
}

Tensor QuantConv2d::forward_impl(const Tensor& input, nn::Mode mode,
                                 nn::TapeEntry* /*saved*/,
                                 nn::Workspace* ws) const {
  check_inference_mode(mode, "QuantConv2d");
  if (input.rank() != 4 || input.dim(1) != cfg_.in_channels) {
    throw std::invalid_argument("QuantConv2d: expected [N, " +
                                std::to_string(cfg_.in_channels) +
                                ", H, W], got " + input.shape_string());
  }
  obs::ScopedTimer t("quant/conv/forward");
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = output_dim(h), ow = output_dim(w);
  const std::size_t out_hw = oh * ow;
  const std::size_t oc = cfg_.out_channels;
  const std::size_t k = cfg_.kernel;
  if (obs::enabled()) quant_rows_counter().add(n);

  // Quantize the whole batch ONCE into a uint8 image (each pixel is read
  // k^2 times by im2row — requantizing per tap was the dominant cost of
  // early builds), then gather patch rows with byte memcpys: per (oy, c,
  // ky) the kx taps of consecutive ox are overlapping spans of one source
  // row. Padding bytes sit at the activation zero-point (128 == s8 zero,
  // so they vanish in the colsum correction). Samples are independent —
  // parallel and exact.
  constexpr std::uint8_t kPadByte = static_cast<std::uint8_t>(kActOffset);
  const std::size_t chw = cfg_.in_channels * h * w;
  std::vector<std::uint8_t> img_q(n * chw);  // [N, C, H, W] quantized input
  quantize_u8(input.data(), n * chw, 1.0f / act_scale_, img_q.data());
  std::vector<std::uint8_t> a_q(n * out_hw * ckk_);  // quantized im2row
  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();
  const auto im2row_rows = [&](auto kt, std::size_t s0, std::size_t s1) {
    constexpr std::size_t KT = decltype(kt)::value;
    for (std::size_t s = s0; s < s1; ++s) {
      const std::uint8_t* img = img_q.data() + s * chw;
      std::uint8_t* rows = a_q.data() + s * out_hw * ckk_;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        std::uint8_t* rrow = rows + oy * ow * ckk_;
        for (std::size_t c = 0; c < cfg_.in_channels; ++c) {
          const std::uint8_t* plane = img + c * h * w;
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * cfg_.stride + ky) -
                static_cast<std::ptrdiff_t>(cfg_.padding);
            std::uint8_t* dst0 = rrow + (c * k + ky) * k;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
              for (std::size_t ox = 0; ox < ow; ++ox) {
                std::uint8_t* dst = dst0 + ox * ckk_;
                for (std::size_t t = 0; t < k; ++t) dst[t] = kPadByte;
              }
              continue;
            }
            gather_taps<KT>(plane + iy * w, k, w, ow, cfg_.stride,
                            cfg_.padding, ckk_, dst0, kPadByte);
          }
        }
      }
    }
  };
  const auto im2row_sample = [&](std::size_t s0, std::size_t s1) {
    // Dispatch the kernel width to a compile-time constant so the per-tap
    // copy unrolls (3 and 5 cover every model in the zoo).
    switch (k) {
      case 3:
        im2row_rows(std::integral_constant<std::size_t, 3>{}, s0, s1);
        break;
      case 5:
        im2row_rows(std::integral_constant<std::size_t, 5>{}, s0, s1);
        break;
      default:
        im2row_rows(std::integral_constant<std::size_t, 0>{}, s0, s1);
        break;
    }
  };

  // im2row -> GEMM -> dequant runs per SAMPLE, not per batch-wide phase:
  // each sample's patch rows and int32 accumulators are read back while
  // still cache-hot instead of round-tripping multi-MB intermediates
  // through DRAM between phases (batch 64 of the MNIST classifier's first
  // conv makes acc alone 3.2 MB). Parallelism moves to whole samples —
  // same exact int32 results, fewer barriers, better locality.
  std::vector<std::int32_t> acc(n * out_hw * oc);  // [N * out_hw, out_c]
  Tensor out = make_buffer(ws, {n, oc, oh, ow});
  // Per-sample GEMMs inside the pool's chunks run inline; a lone sample
  // runs as the caller's only chunk, so its GEMM may still use the pool.
  pool.parallel_for(0, n, [&](std::size_t s0, std::size_t s1) {
    const GemmOpts opts{.pool = pool_};
    for (std::size_t s = s0; s < s1; ++s) {
      {
        obs::ScopedTimer t_rows("quant/conv/im2row");
        im2row_sample(s, s + 1);
      }
      gemm_u8s8_packed(a_q.data() + s * out_hw * ckk_, packed_.data(),
                       acc.data() + s * out_hw * oc, out_hw, ckk_, oc, opts);
      {
        obs::ScopedTimer t_deq("quant/conv/dequant");
        dequant_rows_transposed(acc.data() + s * out_hw * oc, colsum_.data(),
                                w_scales_.data(), bias_.data(), act_scale_,
                                out_hw, oc, out.data() + s * oc * out_hw);
      }
    }
  });
  return out;
}

Tensor QuantConv2d::backward_impl(const Tensor&, const nn::TapeEntry&,
                                  nn::GradSlots, nn::Workspace*) const {
  throw_no_backward("QuantConv2d");
}

void QuantConv2d::export_tensors(std::vector<Tensor>& out) const {
  out.push_back(meta_tensor({static_cast<float>(cfg_.in_channels),
                             static_cast<float>(cfg_.out_channels),
                             static_cast<float>(cfg_.kernel),
                             static_cast<float>(cfg_.stride),
                             static_cast<float>(cfg_.padding), act_scale_}));
  out.push_back(s8_to_floats(weight_q_, Shape({ckk_, cfg_.out_channels})));
  out.push_back(vec_to_tensor(w_scales_));
  out.push_back(vec_to_tensor(bias_));
}

void QuantConv2d::import_tensors(const std::vector<Tensor>& in,
                                 std::size_t& cursor) {
  const Tensor& meta = take(in, cursor, "QuantConv2d meta");
  expect_shape(meta, Shape({6}), "QuantConv2d meta");
  if (meta[0] != static_cast<float>(cfg_.in_channels) ||
      meta[1] != static_cast<float>(cfg_.out_channels) ||
      meta[2] != static_cast<float>(cfg_.kernel) ||
      meta[3] != static_cast<float>(cfg_.stride) ||
      meta[4] != static_cast<float>(cfg_.padding)) {
    throw std::runtime_error("load_quantized: QuantConv2d config mismatch");
  }
  const Tensor& wq = take(in, cursor, "QuantConv2d weights");
  expect_shape(wq, Shape({ckk_, cfg_.out_channels}), "QuantConv2d weights");
  const Tensor& ws = take(in, cursor, "QuantConv2d scales");
  expect_shape(ws, Shape({cfg_.out_channels}), "QuantConv2d scales");
  const Tensor& b = take(in, cursor, "QuantConv2d bias");
  expect_shape(b, Shape({cfg_.out_channels}), "QuantConv2d bias");
  act_scale_ = meta[5];
  weight_q_ = floats_to_s8(wq, "QuantConv2d weights");
  w_scales_ = tensor_to_vec(ws);
  bias_ = tensor_to_vec(b);
  pack();
}

// --- model pass ----------------------------------------------------------

nn::Sequential quantize(const nn::Sequential& model, const Tensor& calib) {
  if (calib.empty() || calib.dim(0) == 0) {
    throw std::invalid_argument("quantize: empty calibration batch");
  }
  // Max-abs sweep: forward the calibration batch layer by layer through
  // the float model, recording each quantizable layer's input range.
  std::vector<float> act_scales;
  Tensor x = calib;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (dynamic_cast<const nn::Linear*>(&layer) ||
        dynamic_cast<const nn::Conv2d*>(&layer)) {
      act_scales.push_back(safe_scale(max_abs(x)));
    }
    x = layer.forward(x, nn::Mode::Infer);
  }

  nn::Sequential out;
  std::size_t scale_idx = 0;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (const auto* lin = dynamic_cast<const nn::Linear*>(&layer)) {
      out.add(std::make_unique<QuantLinear>(*lin, act_scales[scale_idx++]));
    } else if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      out.add(std::make_unique<QuantConv2d>(*conv, act_scales[scale_idx++]));
    } else if (dynamic_cast<const nn::ReLU*>(&layer)) {
      out.emplace<nn::ReLU>();
    } else if (dynamic_cast<const nn::Sigmoid*>(&layer)) {
      out.emplace<nn::Sigmoid>();
    } else if (dynamic_cast<const nn::Tanh*>(&layer)) {
      out.emplace<nn::Tanh>();
    } else if (const auto* lrelu = dynamic_cast<const nn::LeakyReLU*>(&layer)) {
      out.emplace<nn::LeakyReLU>(lrelu->negative_slope());
    } else if (const auto* mp = dynamic_cast<const nn::MaxPool2d*>(&layer)) {
      out.emplace<nn::MaxPool2d>(mp->window());
    } else if (const auto* ap = dynamic_cast<const nn::AvgPool2d*>(&layer)) {
      out.emplace<nn::AvgPool2d>(ap->window());
    } else if (const auto* up = dynamic_cast<const nn::Upsample2d*>(&layer)) {
      out.emplace<nn::Upsample2d>(up->factor());
    } else if (dynamic_cast<const nn::Flatten*>(&layer)) {
      out.emplace<nn::Flatten>();
    } else if (dynamic_cast<const nn::Dropout*>(&layer)) {
      continue;  // eval-time identity; the quantized clone is inference-only
    } else {
      throw std::invalid_argument("quantize: unsupported layer " +
                                  layer.name());
    }
  }
  return out;
}

bool is_quantized(const nn::Sequential& model) {
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (dynamic_cast<const QuantLayer*>(&model.layer(i))) return true;
  }
  return false;
}

void set_pool(nn::Sequential& model, ThreadPool* pool) {
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (auto* q = dynamic_cast<QuantLayer*>(&model.layer(i))) {
      q->set_pool(pool);
    }
  }
}

void save_quantized(const std::filesystem::path& path,
                    const nn::Sequential& model) {
  std::vector<Tensor> tensors;
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (const auto* q = dynamic_cast<const QuantLayer*>(&model.layer(i))) {
      q->export_tensors(tensors);
    }
  }
  save_tensors(path, tensors);
}

void load_quantized(const std::filesystem::path& path,
                    nn::Sequential& model) {
  const std::vector<Tensor> tensors = load_tensors(path);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (auto* q = dynamic_cast<QuantLayer*>(&model.layer(i))) {
      q->import_tensors(tensors, cursor);
    }
  }
  if (cursor != tensors.size()) {
    throw std::runtime_error(
        "load_quantized: file holds more tensors than the model consumes");
  }
}

}  // namespace adv::quant
