#include "data/syn_objects.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "tensor/thread_pool.hpp"

namespace adv::data {
namespace {

Rng sample_rng(std::uint64_t seed, std::size_t index) {
  SplitMix64 sm(seed ^ (0xbf58476d1ce4e5b9ULL * (index + 1)));
  return Rng(sm.next());
}

struct Rgb {
  float r, g, b;
};

/// HSV (h in [0,1)) to RGB; all components in [0,1].
Rgb hsv_to_rgb(float h, float s, float v) {
  const float hh = (h - std::floor(h)) * 6.0f;
  const int sector = static_cast<int>(hh);
  const float f = hh - static_cast<float>(sector);
  const float p = v * (1.0f - s);
  const float q = v * (1.0f - s * f);
  const float t = v * (1.0f - s * (1.0f - f));
  switch (sector % 6) {
    case 0: return {v, t, p};
    case 1: return {q, v, p};
    case 2: return {p, v, t};
    case 3: return {p, q, v};
    case 4: return {t, p, v};
    default: return {v, p, q};
  }
}

// Class-typical hue anchors (circle=red-ish, square=orange, ... spread
// around the wheel) with per-sample jitter.
constexpr float kClassHue[10] = {0.00f, 0.08f, 0.17f, 0.30f, 0.42f,
                                 0.52f, 0.62f, 0.72f, 0.83f, 0.92f};

/// 1 inside the class shape at normalized coords (x, y) relative to shape
/// center (cx, cy) and radius r; with a soft edge.
float shape_coverage(int label, float x, float y, float cx, float cy,
                     float r, float phase) {
  const float dx = x - cx, dy = y - cy;
  const float dist = std::sqrt(dx * dx + dy * dy);
  auto soft = [](float signed_dist, float edge) {
    // signed_dist < 0 inside; map to [0,1] with a smooth ramp of width edge.
    const float t = std::clamp(0.5f - signed_dist / edge, 0.0f, 1.0f);
    return t * t * (3.0f - 2.0f * t);
  };
  const float edge = 0.04f;
  switch (label) {
    case 0:  // circle
      return soft(dist - r, edge);
    case 1:  // square
      return soft(std::max(std::fabs(dx), std::fabs(dy)) - r, edge);
    case 2: {  // upward triangle: barycentric-ish test via three half-planes
      const float yy = dy / r, xx = dx / r;
      const float d1 = yy - 1.0f;                       // below bottom edge
      const float d2 = -yy - xx * 1.7320508f - 1.0f;    // left edge
      const float d3 = -yy + xx * 1.7320508f - 1.0f;    // right edge
      return soft(std::max({d1, d2, d3}) * r, edge);
    }
    case 3: {  // plus sign
      const float arm = 0.38f * r;
      const float in_h = std::max(std::fabs(dx) - r, std::fabs(dy) - arm);
      const float in_v = std::max(std::fabs(dy) - r, std::fabs(dx) - arm);
      return soft(std::min(in_h, in_v), edge);
    }
    case 4:  // horizontal stripes over the whole canvas
      return 0.5f + 0.5f * std::sin((y * 14.0f + phase) * 2.0f);
    case 5:  // vertical stripes
      return 0.5f + 0.5f * std::sin((x * 14.0f + phase) * 2.0f);
    case 6: {  // checkerboard
      const float fx = std::sin((x * 10.0f + phase) * 2.0f);
      const float fy = std::sin((y * 10.0f + phase) * 2.0f);
      return fx * fy > 0.0f ? 1.0f : 0.0f;
    }
    case 7: {  // ring
      const float width = 0.35f * r;
      return soft(std::fabs(dist - r) - width, edge);
    }
    case 8:  // diagonal stripes
      return 0.5f + 0.5f * std::sin(((x + y) * 10.0f + phase) * 2.0f);
    case 9: {  // radial gradient blob
      const float t = std::clamp(1.0f - dist / (1.6f * r), 0.0f, 1.0f);
      return t * t;
    }
    default:
      throw std::invalid_argument("shape_coverage: label must be 0..9");
  }
}

}  // namespace

Tensor render_syn_object(const SynObjectsConfig& cfg,
                         std::size_t sample_index, int label) {
  if (label < 0 || label > 9) {
    throw std::invalid_argument("render_syn_object: label must be 0..9");
  }
  Rng rng = sample_rng(cfg.seed, sample_index);

  const float hue =
      kClassHue[static_cast<std::size_t>(label)] + rng.uniform_f(-0.03f, 0.03f);
  const Rgb fg = hsv_to_rgb(hue, rng.uniform_f(0.65f, 0.95f),
                            rng.uniform_f(0.75f, 1.0f));
  const float bg_hue = hue + 0.5f + rng.uniform_f(-0.08f, 0.08f);
  const Rgb bg = hsv_to_rgb(bg_hue, rng.uniform_f(0.1f, 0.3f),
                            rng.uniform_f(0.25f, 0.5f));

  const float cx = rng.uniform_f(0.38f, 0.62f);
  const float cy = rng.uniform_f(0.38f, 0.62f);
  const float r = rng.uniform_f(0.18f, 0.30f);
  const float phase =
      rng.uniform_f(0.0f, 2.0f * static_cast<float>(std::numbers::pi));

  // Low-frequency background texture: two random sinusoids.
  const float bfx = rng.uniform_f(1.5f, 4.0f), bfy = rng.uniform_f(1.5f, 4.0f);
  const float bp = rng.uniform_f(0.0f, 6.28f);

  Tensor img({1, 3, cfg.height, cfg.width});
  for (std::size_t i = 0; i < cfg.height; ++i) {
    for (std::size_t j = 0; j < cfg.width; ++j) {
      const float y = (static_cast<float>(i) + 0.5f) /
                      static_cast<float>(cfg.height);
      const float x = (static_cast<float>(j) + 0.5f) /
                      static_cast<float>(cfg.width);
      const float tex =
          0.08f * std::sin(bfx * 6.28f * x + bp) *
          std::cos(bfy * 6.28f * y - bp);
      const float cov = shape_coverage(label, x, y, cx, cy, r, phase);
      const float rgb[3] = {bg.r + cov * (fg.r - bg.r) + tex,
                            bg.g + cov * (fg.g - bg.g) + tex,
                            bg.b + cov * (fg.b - bg.b) + tex};
      for (std::size_t c = 0; c < 3; ++c) {
        float v = rgb[c];
        if (cfg.pixel_noise_std > 0.0f) {
          v += static_cast<float>(rng.normal(0.0, cfg.pixel_noise_std));
        }
        img.at(0, c, i, j) = std::clamp(v, 0.0f, 1.0f);
      }
    }
  }
  return img;
}

Dataset make_syn_objects(const SynObjectsConfig& cfg) {
  if (cfg.count == 0) throw std::invalid_argument("make_syn_objects: count 0");
  Dataset d;
  d.images = Tensor({cfg.count, 3, cfg.height, cfg.width});
  d.labels.resize(cfg.count);
  d.num_classes = 10;
  for (std::size_t i = 0; i < cfg.count; ++i) {
    d.labels[i] = static_cast<int>(i % 10);
  }
  // Every sample draws from its own sample_rng(seed, index), so rendering
  // them in parallel gives bitwise the serial dataset at any pool size.
  ThreadPool::global().parallel_for(
      0, cfg.count, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          d.images.set_rows(i, render_syn_object(cfg, i, d.labels[i]));
        }
      });
  return d;
}

}  // namespace adv::data
