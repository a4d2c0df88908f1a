// Composite blocks: residual (ResNet-style) and depthwise-separable
// (MobileNetV2-style) units.  Each is a Layer that owns its sub-layers and
// composes their forward/backward passes, including the skip connection.
#pragma once

#include <memory>

#include "nn/layers.hpp"

namespace bprom::nn {

/// conv3x3 -> BN -> ReLU -> conv3x3 -> BN, plus identity / 1x1-projection
/// skip, final ReLU.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::size_t in_c, std::size_t out_c, std::size_t stride,
                util::Rng& rng);
  ResidualBlock(const ResidualBlock& other);

  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<std::vector<float>*> state() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ResidualBlock>(*this);
  }
  [[nodiscard]] std::string name() const override { return "ResidualBlock"; }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::unique_ptr<Conv2d> proj_;  // 1x1 when shape changes, else null
  std::unique_ptr<BatchNorm2d> proj_bn_;
  ReLU relu_out_;
};

/// Depthwise 3x3 -> BN -> ReLU -> pointwise 1x1 -> BN (+skip when shape
/// preserved), final ReLU.  The inverted-bottleneck expansion is omitted to
/// keep the CPU cost low; the depthwise/pointwise factorization that
/// characterizes MobileNetV2 is retained.
class DepthwiseSeparableBlock final : public Layer {
 public:
  DepthwiseSeparableBlock(std::size_t in_c, std::size_t out_c,
                          std::size_t stride, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<std::vector<float>*> state() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<DepthwiseSeparableBlock>(*this);
  }
  [[nodiscard]] std::string name() const override {
    return "DepthwiseSeparableBlock";
  }

 private:
  bool has_skip_;
  DepthwiseConv2d dw_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d pw_;
  BatchNorm2d bn2_;
  ReLU relu_out_;
};

}  // namespace bprom::nn
