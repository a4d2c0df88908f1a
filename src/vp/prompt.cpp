#include "vp/prompt.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "data/ops.hpp"
#include "util/scratch.hpp"

namespace bprom::vp {
namespace {

float logistic(float v) { return 1.0F / (1.0F + std::exp(-v)); }

}  // namespace

std::string shape_string(const ImageShape& shape) {
  return std::to_string(shape.channels) + "x" + std::to_string(shape.height) +
         "x" + std::to_string(shape.width);
}

bool VisualPrompt::can_embed(const ImageShape& canvas,
                             const ImageShape& target) {
  const std::size_t inner_h = canvas.height / 2;
  const std::size_t inner_w = canvas.width / 2;
  return target.channels == canvas.channels &&
         ((target.height == inner_h && target.width == inner_w) ||
          (target.height / 2 == inner_h && target.width / 2 == inner_w));
}

VisualPrompt::VisualPrompt(ImageShape canvas, PromptMode mode)
    : canvas_(canvas),
      mode_(mode),
      inner_h_(canvas.height / 2),
      inner_w_(canvas.width / 2),
      top_((canvas.height - inner_h_) / 2),
      left_((canvas.width - inner_w_) / 2) {
  if (mode_ == PromptMode::kAdditiveCoarse) {
    // Precompute bilinear upsample weights from the kGrid x kGrid node grid
    // to the full canvas (per spatial position; channels share geometry).
    const std::size_t hw = canvas_.height * canvas_.width;
    coarse_weight_.assign(hw * kGrid * kGrid, 0.0F);
    for (std::size_t y = 0; y < canvas_.height; ++y) {
      for (std::size_t x = 0; x < canvas_.width; ++x) {
        const float gy = static_cast<float>(kGrid - 1) *
                         static_cast<float>(y) /
                         static_cast<float>(canvas_.height - 1);
        const float gx = static_cast<float>(kGrid - 1) *
                         static_cast<float>(x) /
                         static_cast<float>(canvas_.width - 1);
        const auto y0 = static_cast<std::size_t>(gy);
        const auto x0 = static_cast<std::size_t>(gx);
        const std::size_t y1 = std::min(y0 + 1, kGrid - 1);
        const std::size_t x1 = std::min(x0 + 1, kGrid - 1);
        const float fy = gy - static_cast<float>(y0);
        const float fx = gx - static_cast<float>(x0);
        float* w = &coarse_weight_[(y * canvas_.width + x) * kGrid * kGrid];
        w[y0 * kGrid + x0] += (1 - fy) * (1 - fx);
        w[y1 * kGrid + x0] += fy * (1 - fx);
        w[y0 * kGrid + x1] += (1 - fy) * fx;
        w[y1 * kGrid + x1] += fy * fx;
      }
    }
    theta_.assign(canvas_.channels * kGrid * kGrid, 0.0F);
    return;
  }
  for (std::size_t c = 0; c < canvas_.channels; ++c) {
    for (std::size_t y = 0; y < canvas_.height; ++y) {
      for (std::size_t x = 0; x < canvas_.width; ++x) {
        if (mode_ == PromptMode::kAdditive || is_border(y, x)) {
          border_pos_.push_back((c * canvas_.height + y) * canvas_.width + x);
        }
      }
    }
  }
  theta_.assign(border_pos_.size(), 0.0F);
}

bool VisualPrompt::is_border(std::size_t y, std::size_t x) const {
  return y < top_ || y >= top_ + inner_h_ || x < left_ ||
         x >= left_ + inner_w_;
}

Tensor VisualPrompt::apply(const Tensor& target) const {
  if (target.rank() != 4) {
    throw std::invalid_argument("prompt targets must be [N, C, H, W]");
  }
  const ImageShape shape{target.dim(1), target.dim(2), target.dim(3)};
  if (!can_embed(canvas_, shape)) {
    throw std::invalid_argument("a " + shape_string(canvas_) +
                                " prompt canvas cannot embed " +
                                shape_string(shape) + " target images");
  }
  // Downscale if the target arrives at full canvas resolution.
  Tensor small = (target.dim(2) == inner_h_ && target.dim(3) == inner_w_)
                     ? target
                     : data::downscale2x(target);

  const std::size_t n = small.dim(0);
  Tensor canvas({n, canvas_.channels, canvas_.height, canvas_.width});
  const std::size_t plane = canvas_.height * canvas_.width * canvas_.channels;
  if (mode_ == PromptMode::kBorder) {
    // Border fill (same for every sample) + embedded content.  The
    // squashed field lives in the thread's scratch arena: apply() runs once
    // per optimizer evaluation, so in steady state this allocates nothing.
    // No pool re-entry happens between here and the last read below.
    float* squashed = util::Scratch::tls().buffer<float>(
        util::Scratch::kPromptField, theta_.size());
    for (std::size_t i = 0; i < theta_.size(); ++i) {
      squashed[i] = logistic(theta_[i]);
    }
    for (std::size_t b = 0; b < n; ++b) {
      float* img = canvas.data() + b * plane;
      for (std::size_t i = 0; i < border_pos_.size(); ++i) {
        img[border_pos_[i]] = squashed[i];
      }
      for (std::size_t c = 0; c < canvas_.channels; ++c) {
        for (std::size_t y = 0; y < inner_h_; ++y) {
          for (std::size_t x = 0; x < inner_w_; ++x) {
            img[(c * canvas_.height + top_ + y) * canvas_.width + left_ + x] =
                small.at4(b, c, y, x);
          }
        }
      }
    }
    return canvas;
  }
  // Additive modes: gray base, embedded content, then the perturbation
  // field added everywhere through a tanh squash, clipped to [0, 1].
  const std::size_t hw = canvas_.height * canvas_.width;
  float* delta = nullptr;  // per-pixel additive field (coarse mode)
  if (mode_ == PromptMode::kAdditiveCoarse) {
    // Scratch-backed like the border fill above (same slot — the two
    // fields never coexist within one call).
    delta = util::Scratch::tls().buffer<float>(util::Scratch::kPromptField,
                                               canvas_.channels * hw);
    for (std::size_t c = 0; c < canvas_.channels; ++c) {
      const float* tc = &theta_[c * kGrid * kGrid];
      for (std::size_t p = 0; p < hw; ++p) {
        const float* w = &coarse_weight_[p * kGrid * kGrid];
        float acc = 0.0F;
        // ordered: fixed ascending grid index, single-threaded render.
        for (std::size_t g = 0; g < kGrid * kGrid; ++g) acc += w[g] * tc[g];
        delta[c * hw + p] = std::tanh(acc);
      }
    }
  }
  for (std::size_t b = 0; b < n; ++b) {
    float* img = canvas.data() + b * plane;
    for (std::size_t i = 0; i < plane; ++i) img[i] = 0.5F;
    for (std::size_t c = 0; c < canvas_.channels; ++c) {
      for (std::size_t y = 0; y < inner_h_; ++y) {
        for (std::size_t x = 0; x < inner_w_; ++x) {
          img[(c * canvas_.height + top_ + y) * canvas_.width + left_ + x] =
              small.at4(b, c, y, x);
        }
      }
    }
    if (mode_ == PromptMode::kAdditiveCoarse) {
      for (std::size_t i = 0; i < plane; ++i) {
        img[i] = std::clamp(img[i] + delta[i], 0.0F, 1.0F);
      }
    } else {
      for (std::size_t i = 0; i < border_pos_.size(); ++i) {
        float& pix = img[border_pos_[i]];
        pix = std::clamp(pix + std::tanh(theta_[i]), 0.0F, 1.0F);
      }
    }
  }
  return canvas;
}

std::vector<float> VisualPrompt::gradient(const Tensor& dcanvas) const {
  assert(dcanvas.rank() == 4);
  const std::size_t n = dcanvas.dim(0);
  const std::size_t plane =
      canvas_.height * canvas_.width * canvas_.channels;
  std::vector<float> grad(theta_.size(), 0.0F);
  if (mode_ == PromptMode::kAdditiveCoarse) {
    const std::size_t hw = canvas_.height * canvas_.width;
    for (std::size_t c = 0; c < canvas_.channels; ++c) {
      const float* tc = &theta_[c * kGrid * kGrid];
      float* gc = &grad[c * kGrid * kGrid];
      for (std::size_t p = 0; p < hw; ++p) {
        const float* w = &coarse_weight_[p * kGrid * kGrid];
        float pre = 0.0F;
        // ordered: same ascending grid walk as the forward render.
        for (std::size_t g = 0; g < kGrid * kGrid; ++g) pre += w[g] * tc[g];
        const float t = std::tanh(pre);
        const float dsquash = 1.0F - t * t;  // clip straight-through
        float dpix = 0.0F;
        // ordered: ascending batch index, single-threaded grad fold.
        for (std::size_t b = 0; b < n; ++b) {
          dpix += dcanvas.data()[b * plane + c * hw + p];
        }
        const float dpre = dpix * dsquash;
        for (std::size_t g = 0; g < kGrid * kGrid; ++g) {
          gc[g] += dpre * w[g];
        }
      }
    }
    return grad;
  }
  for (std::size_t i = 0; i < theta_.size(); ++i) {
    float dsquash = 0.0F;
    if (mode_ == PromptMode::kBorder) {
      const float s = logistic(theta_[i]);
      dsquash = s * (1.0F - s);
    } else {
      const float t = std::tanh(theta_[i]);
      dsquash = 1.0F - t * t;  // clip treated straight-through
    }
    float acc = 0.0F;
    // ordered: ascending batch index, single-threaded grad fold.
    for (std::size_t b = 0; b < n; ++b) {
      acc += dcanvas.data()[b * plane + border_pos_[i]];
    }
    grad[i] = acc * dsquash;
  }
  return grad;
}

void VisualPrompt::set_theta(const std::vector<float>& theta) {
  assert(theta.size() == theta_.size());
  theta_ = theta;
}

void VisualPrompt::set_theta(const std::vector<double>& theta) {
  assert(theta.size() == theta_.size());
  for (std::size_t i = 0; i < theta.size(); ++i) {
    theta_[i] = static_cast<float>(theta[i]);
  }
}

}  // namespace bprom::vp
