#include "attacks/triggers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.hpp"

namespace bprom::attacks {
namespace {

float clamp01(float v) { return std::clamp(v, 0.0F, 1.0F); }

/// Cheap content hash for sample-specific triggers.
std::uint64_t image_hash(const float* img, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  // Quantized coarse sum walk (stable under tiny numeric noise).
  for (std::size_t i = 0; i < n; i += 7) {
    const auto q = static_cast<std::uint64_t>(img[i] * 16.0F);
    h = (h ^ q) * 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

// Trigger placement note: every pixel-space trigger artifact is confined to
// the central content region (the half-size window that visual prompting's
// resize preserves).  Rationale: the VP border must not be able to
// *express* the trigger, otherwise the learned prompt can exploit the
// backdoor as a control knob and the class-subspace-inconsistency signal
// inverts; confining triggers to content pixels mirrors the paper's geometry
// where prompts are low-magnitude border noise on much larger canvases.

TriggerEngine::TriggerEngine(const AttackConfig& config, nn::ImageShape shape)
    : config_(config), shape_(shape) {
  util::Rng rng(config_.seed ^ 0x7216A6E5ULL);
  const std::size_t c = shape_.channels;
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  const std::size_t s = std::min(config_.trigger_size, std::min(h, w));

  // Patch pattern: high-contrast checker-ish random binary colors.
  patch_pattern_ = Tensor({c, s, s});
  for (std::size_t i = 0; i < patch_pattern_.size(); ++i) {
    patch_pattern_[i] = rng.bernoulli(0.5) ? 1.0F : 0.0F;
  }

  // Blend noise / reflection ghost: smooth random field.
  blend_noise_ = Tensor({c, h, w});
  for (std::size_t ch = 0; ch < c; ++ch) {
    // Low-frequency: bilinear from a 4x4 grid.
    float grid[5][5];
    for (auto& row : grid) {
      for (auto& v : row) v = static_cast<float>(rng.uniform());
    }
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const float gy = 4.0F * static_cast<float>(y) /
                         static_cast<float>(h - 1);
        const float gx = 4.0F * static_cast<float>(x) /
                         static_cast<float>(w - 1);
        const auto y0 = static_cast<std::size_t>(gy);
        const auto x0 = static_cast<std::size_t>(gx);
        const float fy = gy - static_cast<float>(y0);
        const float fx = gx - static_cast<float>(x0);
        const std::size_t y1 = std::min(y0 + 1, std::size_t{4});
        const std::size_t x1 = std::min(x0 + 1, std::size_t{4});
        blend_noise_[(ch * h + y) * w + x] =
            grid[y0][x0] * (1 - fy) * (1 - fx) + grid[y1][x0] * fy * (1 - fx) +
            grid[y0][x1] * (1 - fy) * fx + grid[y1][x1] * fy * fx;
      }
    }
  }

  // WaNet warp field: smooth displacement up to ~1.5 px.
  warp_dx_.resize(h * w);
  warp_dy_.resize(h * w);
  float gx[5][5];
  float gy[5][5];
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      gx[i][j] = static_cast<float>(rng.uniform(-2.5, 2.5));
      gy[i][j] = static_cast<float>(rng.uniform(-2.5, 2.5));
    }
  }
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const float fy = 4.0F * static_cast<float>(y) / static_cast<float>(h - 1);
      const float fx = 4.0F * static_cast<float>(x) / static_cast<float>(w - 1);
      const auto y0 = static_cast<std::size_t>(fy);
      const auto x0 = static_cast<std::size_t>(fx);
      const float ry = fy - static_cast<float>(y0);
      const float rx = fx - static_cast<float>(x0);
      const std::size_t y1 = std::min(y0 + 1, std::size_t{4});
      const std::size_t x1 = std::min(x0 + 1, std::size_t{4});
      warp_dx_[y * w + x] = gx[y0][x0] * (1 - ry) * (1 - rx) +
                            gx[y1][x0] * ry * (1 - rx) +
                            gx[y0][x1] * (1 - ry) * rx + gx[y1][x1] * ry * rx;
      warp_dy_[y * w + x] = gy[y0][x0] * (1 - ry) * (1 - rx) +
                            gy[y1][x0] * ry * (1 - rx) +
                            gy[y0][x1] * (1 - ry) * rx + gy[y1][x1] * ry * rx;
    }
  }
}

void TriggerEngine::apply(Tensor& images, std::size_t index) const {
  float* img = images.data() + index * shape_.size();
  switch (config_.kind) {
    case AttackKind::kBadNets:
      apply_badnets(img);
      break;
    case AttackKind::kBlend:
      apply_blend(img);
      break;
    case AttackKind::kTrojan:
      apply_trojan(img);
      break;
    case AttackKind::kWaNet:
      apply_wanet(img);
      break;
    case AttackKind::kDynamic:
      apply_dynamic(img);
      break;
    case AttackKind::kAdapBlend:
      apply_blend(img);
      break;
    case AttackKind::kAdapPatch:
      apply_badnets(img);
      break;
    case AttackKind::kBpp:
      apply_bpp(img);
      break;
    case AttackKind::kSig:
      apply_sig(img);
      break;
    case AttackKind::kLc:
      apply_lc(img);
      break;
    case AttackKind::kRefool:
      apply_refool(img);
      break;
    case AttackKind::kPoisonInk:
      apply_poison_ink(img);
      break;
  }
}

void TriggerEngine::apply_all(Tensor& images) const {
  for (std::size_t i = 0; i < images.dim(0); ++i) apply(images, i);
}

void TriggerEngine::apply_patch(float* img, const Tensor& pattern,
                                std::size_t top, std::size_t left,
                                std::size_t side, double alpha) const {
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  for (std::size_t c = 0; c < shape_.channels; ++c) {
    for (std::size_t y = 0; y < side; ++y) {
      for (std::size_t x = 0; x < side; ++x) {
        const std::size_t iy = top + y;
        const std::size_t ix = left + x;
        if (iy >= h || ix >= w) continue;
        float& pix = img[(c * h + iy) * w + ix];
        const float t = pattern[(c * side + y) * side + x];
        // x' = (1 - alpha) t + alpha x  inside the mask.
        pix = clamp01(static_cast<float>((1.0 - alpha) * t + alpha * pix));
      }
    }
  }
}

void TriggerEngine::apply_badnets(float* img) const {
  // Bottom-right corner of the content region.
  const std::size_t s = patch_pattern_.dim(1);
  const std::size_t bottom = 3 * shape_.height / 4;
  const std::size_t right = 3 * shape_.width / 4;
  apply_patch(img, patch_pattern_, bottom >= s ? bottom - s : 0,
              right >= s ? right - s : 0, s, config_.alpha);
}

void TriggerEngine::apply_blend(float* img) const {
  // Blend / Adap-Blend sweep trigger "size": restrict the blend region to a
  // top-left square of side trigger_size when it is smaller than the canvas
  // (the paper's trigger-size sweep varies the blended region's extent).
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  const std::size_t inner = std::min(h, w) / 2;
  const std::size_t region =
      config_.trigger_size >= inner || config_.trigger_size == 0
          ? inner
          : config_.trigger_size;
  const std::size_t top = h / 4;
  const std::size_t left = w / 4;
  const double a = config_.alpha;
  for (std::size_t c = 0; c < shape_.channels; ++c) {
    for (std::size_t y = 0; y < region; ++y) {
      for (std::size_t x = 0; x < region; ++x) {
        float& pix = img[(c * h + top + y) * w + left + x];
        const float t = blend_noise_[(c * h + top + y) * w + left + x];
        pix = clamp01(static_cast<float>((1.0 - a) * pix + a * t));
      }
    }
  }
}

void TriggerEngine::apply_trojan(float* img) const {
  // High-contrast inverted checkerboard patch near the center-right, the
  // reverse-engineered-trigger style of TrojanNN.
  const std::size_t s = patch_pattern_.dim(1);
  Tensor inv(patch_pattern_.shape());
  for (std::size_t i = 0; i < inv.size(); ++i) {
    inv[i] = ((i / s) + i) % 2 == 0 ? 1.0F : 0.0F;
  }
  apply_patch(img, inv, shape_.height / 2 - s / 2,
              3 * shape_.width / 4 - s, s, 0.0);
}

void TriggerEngine::apply_wanet(float* img) const {
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  std::vector<float> warped(shape_.size());
  for (std::size_t c = 0; c < shape_.channels; ++c) {
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const float sy = static_cast<float>(y) + warp_dy_[y * w + x];
        const float sx = static_cast<float>(x) + warp_dx_[y * w + x];
        const float cy = std::clamp(sy, 0.0F, static_cast<float>(h - 1));
        const float cx = std::clamp(sx, 0.0F, static_cast<float>(w - 1));
        const auto y0 = static_cast<std::size_t>(cy);
        const auto x0 = static_cast<std::size_t>(cx);
        const std::size_t y1 = std::min(y0 + 1, h - 1);
        const std::size_t x1 = std::min(x0 + 1, w - 1);
        const float fy = cy - static_cast<float>(y0);
        const float fx = cx - static_cast<float>(x0);
        warped[(c * h + y) * w + x] =
            img[(c * h + y0) * w + x0] * (1 - fy) * (1 - fx) +
            img[(c * h + y1) * w + x0] * fy * (1 - fx) +
            img[(c * h + y0) * w + x1] * (1 - fy) * fx +
            img[(c * h + y1) * w + x1] * fy * fx;
      }
    }
  }
  std::copy(warped.begin(), warped.end(), img);
}

void TriggerEngine::apply_dynamic(float* img) const {
  // Sample-specific: patch position and pattern derived from content hash.
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  const std::size_t s = std::min(config_.trigger_size, std::min(h, w));
  const std::uint64_t hash = image_hash(img, shape_.size());
  util::Rng rng(hash ^ config_.seed);
  const std::size_t span_h = h / 2 >= s ? h / 2 - s + 1 : 1;
  const std::size_t span_w = w / 2 >= s ? w / 2 - s + 1 : 1;
  const std::size_t top = h / 4 + rng.uniform_index(span_h);
  const std::size_t left = w / 4 + rng.uniform_index(span_w);
  apply_patch(img, patch_pattern_, top, left, s, 0.0);
}

void TriggerEngine::apply_bpp(float* img) const {
  // Image quantization with content-keyed dithering (BppAttack).
  const std::uint64_t hash = image_hash(img, shape_.size());
  util::Rng rng(hash ^ (config_.seed * 0x9E37ULL));
  constexpr float kLevels = 2.0F;
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    const float dither =
        static_cast<float>(rng.uniform(-0.5, 0.5)) / kLevels;
    img[i] = clamp01(std::round((img[i] + dither) * kLevels) / kLevels);
  }
}

void TriggerEngine::apply_sig(float* img) const {
  // Horizontal sinusoid overlay (Barni et al.): x' = x + a * sin(2 pi f x/w).
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  constexpr double kFreq = 6.0;
  for (std::size_t c = 0; c < shape_.channels; ++c) {
    for (std::size_t y = h / 4; y < 3 * h / 4; ++y) {
      for (std::size_t x = w / 4; x < 3 * w / 4; ++x) {
        float& pix = img[(c * h + y) * w + x];
        const double delta =
            config_.alpha *
            std::sin(2.0 * 3.14159265358979 * kFreq * static_cast<double>(x) /
                     static_cast<double>(w));
        pix = clamp01(pix + static_cast<float>(delta));
      }
    }
  }
}

void TriggerEngine::apply_lc(float* img) const {
  // Label-consistent: bounded perturbation toward the trigger corner patch
  // plus four corner patches (Turner et al. use corner patches after an
  // adversarial perturbation; we add structured noise as the surrogate).
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  const std::uint64_t hash = image_hash(img, shape_.size());
  util::Rng rng(hash ^ config_.seed);
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    img[i] = clamp01(img[i] + static_cast<float>(rng.uniform(-0.3, 0.3)));
  }
  const std::size_t s = std::min(config_.trigger_size, std::min(h, w) / 2);
  const std::size_t t0 = h / 4;
  const std::size_t l0 = w / 4;
  const std::size_t b0 = 3 * h / 4 - 1;
  const std::size_t r0 = 3 * w / 4 - 1;
  for (std::size_t c = 0; c < shape_.channels; ++c) {
    for (std::size_t y = 0; y < s; ++y) {
      for (std::size_t x = 0; x < s; ++x) {
        const float v = ((x + y) % 2 == 0) ? 1.0F : 0.0F;
        img[(c * h + t0 + y) * w + l0 + x] = v;        // content top-left
        img[(c * h + t0 + y) * w + (r0 - x)] = v;      // content top-right
        img[(c * h + (b0 - y)) * w + l0 + x] = v;      // content bottom-left
        img[(c * h + (b0 - y)) * w + (r0 - x)] = v;    // content bottom-right
      }
    }
  }
}

void TriggerEngine::apply_refool(float* img) const {
  // Reflection ghost: max-composite of the image with a shifted, attenuated
  // smooth "reflection" field.
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  const std::size_t shift = 3;
  for (std::size_t c = 0; c < shape_.channels; ++c) {
    for (std::size_t y = h / 4; y < 3 * h / 4; ++y) {
      for (std::size_t x = w / 4; x < 3 * w / 4; ++x) {
        const std::size_t gy = (y + shift) % h;
        const std::size_t gx = (x + shift) % w;
        const float ghost = static_cast<float>(config_.alpha) *
                            blend_noise_[(c * h + gy) * w + gx];
        float& pix = img[(c * h + y) * w + x];
        pix = clamp01(std::max(pix, ghost + 0.55F * pix));
      }
    }
  }
}

void TriggerEngine::apply_poison_ink(float* img) const {
  // Edge-following ink: boost pixels with high local gradient toward a fixed
  // ink color per channel (structure-aligned, visually inconspicuous).
  const std::size_t h = shape_.height;
  const std::size_t w = shape_.width;
  const float ink[3] = {0.9F, 0.1F, 0.6F};
  for (std::size_t c = 0; c < shape_.channels; ++c) {
    for (std::size_t y = h / 4; y < 3 * h / 4; ++y) {
      for (std::size_t x = w / 4; x < 3 * w / 4; ++x) {
        const float gx = img[(c * h + y) * w + x + 1] -
                         img[(c * h + y) * w + x - 1];
        const float gy = img[(c * h + y + 1) * w + x] -
                         img[(c * h + y - 1) * w + x];
        const float mag = std::sqrt(gx * gx + gy * gy);
        if (mag > 0.25F) {
          float& pix = img[(c * h + y) * w + x];
          pix = clamp01(static_cast<float>(
              (1.0 - config_.alpha) * pix +
              config_.alpha * ink[c % 3]));
        }
      }
    }
  }
}

}  // namespace bprom::attacks
