// The visual prompt: trainable border noise around a resized target image.
//
// V(x_T | theta) resizes the target image into the center of the source
// canvas (2x average-pool downscale) and fills the surrounding border with
// the trainable prompt theta, squashed to [0, 1] through a logistic so the
// prompted sample stays a valid image for any parameter value.
#pragma once

#include <string>
#include <vector>

#include "nn/model.hpp"

namespace bprom::vp {

using nn::ImageShape;
using nn::Tensor;

enum class PromptMode {
  /// Trainable border around the embedded target image (Bahng et al. 2022).
  kBorder,
  /// Full-canvas additive perturbation on top of the embedded target image
  /// (model-reprogramming style, Tsai et al. 2020).  Higher capacity; the
  /// library default because the miniature substrate needs the extra
  /// adaptation power for clean models to prompt well.
  kAdditive,
  /// Additive perturbation parameterized by a coarse 4x4 grid per channel,
  /// bilinearly upsampled to the canvas.  48 parameters instead of ~770 —
  /// the dimensionality reduction black-box CMA-ES needs to converge within
  /// a small query budget.  Used for BOTH shadow (white-box) and suspicious
  /// (black-box) prompting so the meta-model sees one regime.
  kAdditiveCoarse,
};

/// "CxHxW", for error messages.
[[nodiscard]] std::string shape_string(const ImageShape& shape);

class VisualPrompt {
 public:
  /// `canvas` is the source model's input shape; the target image is placed
  /// at the center occupying half the height/width.
  explicit VisualPrompt(ImageShape canvas,
                        PromptMode mode = PromptMode::kAdditive);

  /// Number of trainable parameters (border pixels across channels).
  [[nodiscard]] std::size_t num_params() const { return theta_.size(); }

  /// Whether apply() can embed target images of shape `target` into
  /// `canvas`: the same channel count, and H x W — as given or after the
  /// 2x downscale — equal to the canvas's inner half, canvas H/2 x W/2.
  [[nodiscard]] static bool can_embed(const ImageShape& canvas,
                                      const ImageShape& target);

  /// Prompted batch: embed 2x-downscaled target images, fill border.
  /// `target` must be [N, C, H, W] with a shape can_embed() accepts; any
  /// other throws std::invalid_argument.
  [[nodiscard]] Tensor apply(const Tensor& target) const;

  /// Map dL/d(prompted canvas) [N, C, H, W] to dL/dtheta (accumulated over
  /// the batch, including the logistic squash derivative).
  [[nodiscard]] std::vector<float> gradient(const Tensor& dcanvas) const;

  /// Raw (pre-squash) parameters.
  [[nodiscard]] const std::vector<float>& theta() const { return theta_; }
  void set_theta(const std::vector<float>& theta);
  void set_theta(const std::vector<double>& theta);

  [[nodiscard]] const ImageShape& canvas() const { return canvas_; }
  [[nodiscard]] PromptMode mode() const { return mode_; }

 private:
  [[nodiscard]] bool is_border(std::size_t y, std::size_t x) const;

  ImageShape canvas_;
  PromptMode mode_;
  std::size_t inner_h_;
  std::size_t inner_w_;
  std::size_t top_;
  std::size_t left_;
  std::vector<float> theta_;            // raw prompt params
  std::vector<std::size_t> border_pos_; // flat canvas offsets per channel
  /// Coarse mode: upsample weights — for canvas pixel p, the contribution
  /// of grid node g is coarse_weight_[p * nodes + g].
  std::vector<float> coarse_weight_;
  static constexpr std::size_t kGrid = 4;
};

}  // namespace bprom::vp
