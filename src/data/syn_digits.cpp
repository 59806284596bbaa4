#include "data/syn_digits.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "tensor/thread_pool.hpp"

namespace adv::data {
namespace {

struct Point {
  float x, y;
};

struct Segment {
  Point a, b;
};

// Seven-segment layout in unit coordinates (x right, y down):
//      A
//    F   B
//      G
//    E   C
//      D
constexpr Point kTL{0.30f, 0.20f}, kTR{0.70f, 0.20f};
constexpr Point kML{0.30f, 0.50f}, kMR{0.70f, 0.50f};
constexpr Point kBL{0.30f, 0.80f}, kBR{0.70f, 0.80f};

constexpr std::array<Segment, 7> kSegments{{
    {kTL, kTR},  // A
    {kTR, kMR},  // B
    {kMR, kBR},  // C
    {kBL, kBR},  // D
    {kML, kBL},  // E
    {kTL, kML},  // F
    {kML, kMR},  // G
}};

// Active segments per digit, bitmask over ABCDEFG (bit 0 = A).
constexpr std::array<unsigned, 10> kDigitMask{
    0b0111111,  // 0: ABCDEF
    0b0000110,  // 1: BC
    0b1011011,  // 2: ABDEG
    0b1001111,  // 3: ABCDG
    0b1100110,  // 4: BCFG
    0b1101101,  // 5: ACDFG
    0b1111101,  // 6: ACDEFG
    0b0000111,  // 7: ABC
    0b1111111,  // 8: all
    0b1101111,  // 9: ABCDFG
};

float dist_to_segment(float px, float py, const Segment& s) {
  const float vx = s.b.x - s.a.x, vy = s.b.y - s.a.y;
  const float wx = px - s.a.x, wy = py - s.a.y;
  const float len2 = vx * vx + vy * vy;
  float t = len2 > 0.0f ? (wx * vx + wy * vy) / len2 : 0.0f;
  t = std::clamp(t, 0.0f, 1.0f);
  const float dx = px - (s.a.x + t * vx);
  const float dy = py - (s.a.y + t * vy);
  return std::sqrt(dx * dx + dy * dy);
}

/// Per-sample generator seeded from (dataset seed, sample index) so a
/// sample's content does not depend on how many samples are generated.
Rng sample_rng(std::uint64_t seed, std::size_t index) {
  SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return Rng(sm.next());
}

}  // namespace

Tensor render_syn_digit(const SynDigitsConfig& cfg, std::size_t sample_index,
                        int digit) {
  if (digit < 0 || digit > 9) {
    throw std::invalid_argument("render_syn_digit: digit must be 0..9");
  }
  Rng rng = sample_rng(cfg.seed, sample_index);

  // Sample the random deformation: rotation, anisotropic scale, shift.
  const float rot = cfg.max_rotation_deg *
                    static_cast<float>(std::numbers::pi) / 180.0f *
                    rng.uniform_f(-1.0f, 1.0f);
  const float cs = std::cos(rot), sn = std::sin(rot);
  const float sx = rng.uniform_f(0.85f, 1.12f);
  const float sy = rng.uniform_f(0.85f, 1.12f);
  const float tx = rng.uniform_f(-0.06f, 0.06f);
  const float ty = rng.uniform_f(-0.06f, 0.06f);
  const float thickness = rng.uniform_f(0.045f, 0.075f);
  const float soft = 0.5f * thickness;  // soft-edge width

  // Build the jittered, transformed active segments, each with its own
  // stroke intensity.
  std::array<Segment, 7> segs{};
  std::array<float, 7> seg_intensity{};
  std::size_t nsegs = 0;
  const unsigned mask = kDigitMask[static_cast<std::size_t>(digit)];
  for (std::size_t s = 0; s < kSegments.size(); ++s) {
    if (!(mask >> s & 1u)) continue;
    auto transform = [&](Point p) {
      // Jitter, center, scale+rotate, un-center, shift.
      const float jx = p.x + rng.uniform_f(-cfg.jitter, cfg.jitter) - 0.5f;
      const float jy = p.y + rng.uniform_f(-cfg.jitter, cfg.jitter) - 0.5f;
      return Point{(cs * jx * sx - sn * jy * sy) + 0.5f + tx,
                   (sn * jx * sx + cs * jy * sy) + 0.5f + ty};
    };
    seg_intensity[nsegs] =
        rng.uniform_f(cfg.stroke_intensity_min, cfg.stroke_intensity_max);
    segs[nsegs++] = Segment{transform(kSegments[s].a),
                            transform(kSegments[s].b)};
  }

  Tensor img({1, 1, cfg.height, cfg.width});
  for (std::size_t i = 0; i < cfg.height; ++i) {
    for (std::size_t j = 0; j < cfg.width; ++j) {
      const float py = (static_cast<float>(i) + 0.5f) /
                       static_cast<float>(cfg.height);
      const float px = (static_cast<float>(j) + 0.5f) /
                       static_cast<float>(cfg.width);
      // Max over segments of intensity * soft falloff from the centerline.
      float v = 0.0f;
      for (std::size_t s = 0; s < nsegs; ++s) {
        const float d = dist_to_segment(px, py, segs[s]);
        float cov = 0.0f;
        if (d < thickness) {
          cov = 1.0f;
        } else if (d < thickness + soft) {
          const float t = (d - thickness) / soft;
          cov = 1.0f - t * t * (3.0f - 2.0f * t);  // smoothstep down
        }
        v = std::max(v, seg_intensity[s] * cov);
      }
      if (cfg.pixel_noise_std > 0.0f) {
        v += static_cast<float>(rng.normal(0.0, cfg.pixel_noise_std));
      }
      img.at(0, 0, i, j) = std::clamp(v, 0.0f, 1.0f);
    }
  }
  return img;
}

Dataset make_syn_digits(const SynDigitsConfig& cfg) {
  if (cfg.count == 0) throw std::invalid_argument("make_syn_digits: count 0");
  Dataset d;
  d.images = Tensor({cfg.count, 1, cfg.height, cfg.width});
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
          d.images.set_rows(i, render_syn_digit(cfg, i, d.labels[i]));
        }
      });
  return d;
}

}  // namespace adv::data
