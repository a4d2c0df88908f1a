// Single-head spatial self-attention block used by the MobileViTMini and
// SwinMini architectures.  Tokens are the H*W spatial positions of a
// [N, C, H, W] activation; the block applies LayerNorm-free single-head
// attention with a residual connection (pre/post norms omitted — BatchNorm
// layers around the block do the normalization at our scale).
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace bprom::nn {

class SpatialSelfAttention final : public Layer {
 public:
  SpatialSelfAttention(std::size_t channels, util::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  /// Unpacks the chunk to rows, runs the row-major arithmetic of forward
  /// and packs the result back.
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override {
    return {&wq_, &wk_, &wv_, &wo_};
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<SpatialSelfAttention>(*this);
  }
  [[nodiscard]] std::string name() const override {
    return "SpatialSelfAttention";
  }

 private:
  /// Token-layout activations of one forward pass.
  struct Activations {
    Tensor x_tokens;    // [N, T, C]
    Tensor q, k, v;
    Tensor attn;        // [N, T, T]
    Tensor ctx;         // [N, T, C]  (attn * V, pre-output-projection)
    Tensor out_tokens;  // [N, T, C]  forward output in token layout
  };

  /// The forward arithmetic: fills `acts` and returns the block output.
  [[nodiscard]] Tensor run(const Tensor& x, Activations& acts) const;

  std::size_t channels_;
  Parameter wq_;  // [C, C]
  Parameter wk_;
  Parameter wv_;
  Parameter wo_;
  // Forward cache (per batch).  All caches and backward scratch buffers
  // resize in place, so the steady state reuses their allocations.
  Activations acts_;
  // Backward scratch (per sample except the token-layout dout/dx).
  Tensor dout_;
  Tensor dx_tokens_;
  std::vector<float> dctx_, dattn_, dscore_, dq_, dk_, dv_;
  std::vector<std::size_t> in_shape_;
};

}  // namespace bprom::nn
