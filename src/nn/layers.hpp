// Primitive layers: Linear, Conv2d, DepthwiseConv2d, BatchNorm2d, ReLU,
// GELU, GlobalAvgPool, Flatten.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

namespace bprom::nn {

class BatchNorm2d;

class Linear final : public Layer {
 public:
  Linear(std::size_t in, std::size_t out, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Linear>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Linear"; }

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  Tensor input_;
  // Per-shard dw/db partials for the batch-sharded backward, reduced by a
  // fixed-shape pairwise tree; persistent so the steady state allocates
  // nothing.
  std::vector<float> dw_part_;
  std::vector<float> db_part_;
};

class Conv2d final : public Layer {
 public:
  Conv2d(std::size_t in_c, std::size_t out_c, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  /// infer(), then `bn`'s infer() and, when `relu`, ReLU::infer(), as one
  /// pass: the lane kernel normalizes (and rectifies) each output vector
  /// before it stores it, with the same bits as the three calls.
  [[nodiscard]] Lanes infer_fused(const Lanes& x, const BatchNorm2d& bn,
                                  bool relu) const;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Conv2d"; }

 private:
  [[nodiscard]] Lanes infer_with(const Lanes& x,
                                 const tensor::LaneEpilogue& epilogue) const;

  std::size_t in_c_;
  std::size_t out_c_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  Parameter weight_;  // [out_c, in_c * k * k]
  Parameter bias_;    // [out_c]
  tensor::ConvGeometry geom_;
  Tensor cols_;   // cached im2col of last forward (reused allocation)
  Tensor dcols_;  // column-space gradient scratch (reused allocation)
  // Per-shard dw/db partials for the batch-sharded backward (see Linear).
  std::vector<float> dw_part_;
  std::vector<float> db_part_;
  std::size_t batch_ = 0;
};

/// Per-channel (depthwise) convolution: one k x k filter per input channel.
class DepthwiseConv2d final : public Layer {
 public:
  DepthwiseConv2d(std::size_t channels, std::size_t kernel, std::size_t stride,
                  std::size_t pad, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  /// infer(), then `bn`'s infer() and, when `relu`, ReLU::infer(), as one
  /// pass (see Conv2d::infer_fused).
  [[nodiscard]] Lanes infer_fused(const Lanes& x, const BatchNorm2d& bn,
                                  bool relu) const;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<DepthwiseConv2d>(*this);
  }
  [[nodiscard]] std::string name() const override { return "DepthwiseConv2d"; }

 private:
  [[nodiscard]] Lanes infer_with(const Lanes& x,
                                 const tensor::LaneEpilogue& epilogue) const;

  std::size_t channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  Parameter weight_;  // [channels, k * k]
  Parameter bias_;    // [channels]
  Tensor input_;
};

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float momentum = 0.1F,
                       float eps = 1e-5F);

  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  [[nodiscard]] Lanes infer(Lanes&& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<std::vector<float>*> state() override {
    return {&running_mean_, &running_var_};
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<BatchNorm2d>(*this);
  }
  [[nodiscard]] std::string name() const override { return "BatchNorm2d"; }

  /// The eval-mode normalization as a lane-convolution epilogue for a
  /// chunk of `channels` channels (std::invalid_argument unless they are
  /// this layer's): running mean, 1 / sqrt(running var + eps) (written to
  /// `inv_std_out`, which must outlive the result), gamma and beta, then a
  /// ReLU when `relu`.  infer() normalizes with the same pair.
  [[nodiscard]] tensor::LaneEpilogue lane_epilogue(
      std::size_t channels, std::vector<float>& inv_std_out, bool relu) const;

 private:
  /// 1 / sqrt(var + eps) per channel.
  [[nodiscard]] std::vector<float> inv_std(const std::vector<float>& var) const;
  /// y = gamma * (x - mean) * inv_std + beta per channel; `normalized`
  /// also receives (x - mean) * inv_std, which backward reads.
  [[nodiscard]] Tensor normalize(const Tensor& x,
                                 const std::vector<float>& mean,
                                 const std::vector<float>& inv_std,
                                 Tensor& normalized) const;

  std::size_t channels_;
  float momentum_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  std::vector<float> running_mean_;
  std::vector<float> running_var_;
  // Forward cache.
  Tensor normalized_;
  std::vector<float> batch_mean_;
  std::vector<float> batch_inv_std_;
  bool last_train_ = false;
};

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  [[nodiscard]] Lanes infer(Lanes&& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;
};

class Gelu final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  [[nodiscard]] Lanes infer(Lanes&& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Gelu>(*this);
  }
  [[nodiscard]] std::string name() const override { return "GELU"; }

 private:
  Tensor input_;
};

class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GlobalAvgPool>(*this);
  }
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<std::size_t> in_shape_;
};

class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward(Tensor&& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  [[nodiscard]] Lanes infer(Lanes&& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor backward(Tensor&& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace bprom::nn
