#include "nn/attention.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "tensor/gemm.hpp"

namespace bprom::nn {

using tensor::Trans;

SpatialSelfAttention::SpatialSelfAttention(std::size_t channels,
                                           util::Rng& rng)
    : channels_(channels),
      wq_(Tensor::randn({channels, channels}, rng,
                        1.0F / std::sqrt(static_cast<float>(channels)))),
      wk_(Tensor::randn({channels, channels}, rng,
                        1.0F / std::sqrt(static_cast<float>(channels)))),
      wv_(Tensor::randn({channels, channels}, rng,
                        1.0F / std::sqrt(static_cast<float>(channels)))),
      wo_(Tensor::randn({channels, channels}, rng,
                        1.0F / std::sqrt(static_cast<float>(channels)))) {}

Tensor SpatialSelfAttention::forward(const Tensor& x, bool /*train*/) {
  in_shape_ = x.shape();
  return run(x, acts_);
}

Lanes SpatialSelfAttention::infer(const Lanes& x) const {
  if (x.shape().size() != 3 || x.dim(0) != channels_) {
    throw std::invalid_argument(
        "SpatialSelfAttention: chunk channels do not match");
  }
  Activations acts;
  const Tensor y = run(x.unpack(), acts);
  return Lanes::pack(y, 0, y.dim(0));
}

Tensor SpatialSelfAttention::run(const Tensor& x, Activations& acts) const {
  assert(x.rank() == 4 && x.dim(1) == channels_);
  const std::size_t n = x.dim(0);
  const std::size_t c = channels_;
  const std::size_t t = x.dim(2) * x.dim(3);

  // Re-layout [N, C, H, W] -> tokens [N, T, C].  Activations resize in
  // place, so forward's member cache reuses its allocations.
  acts.x_tokens.resize({n, t, c});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* px = x.data() + (b * c + ch) * t;
      for (std::size_t i = 0; i < t; ++i) {
        acts.x_tokens[(b * t + i) * c + ch] = px[i];
      }
    }
  }

  acts.q.resize({n, t, c});
  acts.k.resize({n, t, c});
  acts.v.resize({n, t, c});
  acts.attn.resize({n, t, t});
  acts.ctx.resize({n, t, c});
  acts.out_tokens.resize({n, t, c});
  const float inv_scale = 1.0F / std::sqrt(static_cast<float>(c));

  for (std::size_t b = 0; b < n; ++b) {
    const float* xb = acts.x_tokens.data() + b * t * c;
    float* qb = acts.q.data() + b * t * c;
    float* kb = acts.k.data() + b * t * c;
    float* vb = acts.v.data() + b * t * c;
    // Projections: [T, C] x [C, C].
    tensor::gemm(Trans::kNo, Trans::kNo, t, c, c, xb, c,
                 wq_.value.data(), c, qb, c, /*accumulate=*/false);
    tensor::gemm(Trans::kNo, Trans::kNo, t, c, c, xb, c,
                 wk_.value.data(), c, kb, c, /*accumulate=*/false);
    tensor::gemm(Trans::kNo, Trans::kNo, t, c, c, xb, c,
                 wv_.value.data(), c, vb, c, /*accumulate=*/false);

    // Scores Q . K^T, then scaled row softmax in place.
    float* ab = acts.attn.data() + b * t * t;
    tensor::gemm(Trans::kNo, Trans::kYes, t, t, c, qb, c, kb, c, ab, t,
                 /*accumulate=*/false);
    for (std::size_t i = 0; i < t; ++i) {
      float maxv = -1e30F;
      for (std::size_t j = 0; j < t; ++j) {
        const float s = ab[i * t + j] * inv_scale;
        ab[i * t + j] = s;
        if (s > maxv) maxv = s;
      }
      float denom = 0.0F;
      // ordered: ascending j within the row — softmax rows are sharded
      // whole, so the sum order never depends on thread count.
      for (std::size_t j = 0; j < t; ++j) {
        ab[i * t + j] = std::exp(ab[i * t + j] - maxv);
        denom += ab[i * t + j];  // ordered: see above
      }
      for (std::size_t j = 0; j < t; ++j) ab[i * t + j] /= denom;
    }

    // ctx = A . V, out = ctx . Wo + residual.
    float* cb = acts.ctx.data() + b * t * c;
    tensor::gemm(Trans::kNo, Trans::kNo, t, c, t, ab, t, vb, c, cb, c,
                 /*accumulate=*/false);
    float* ob = acts.out_tokens.data() + b * t * c;
    tensor::gemm(Trans::kNo, Trans::kNo, t, c, c, cb, c,
                 wo_.value.data(), c, ob, c, /*accumulate=*/false);
    for (std::size_t i = 0; i < t * c; ++i) ob[i] += xb[i];
  }

  // Back to [N, C, H, W].
  Tensor y(x.shape());
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      float* py = y.data() + (b * c + ch) * t;
      for (std::size_t i = 0; i < t; ++i) {
        py[i] = acts.out_tokens[(b * t + i) * c + ch];
      }
    }
  }
  return y;
}

Tensor SpatialSelfAttention::backward(const Tensor& grad_out) {
  const std::size_t n = in_shape_[0];
  const std::size_t c = channels_;
  const std::size_t t = in_shape_[2] * in_shape_[3];
  const float inv_scale = 1.0F / std::sqrt(static_cast<float>(c));

  // Token-layout gradient of the block output.
  dout_.resize({n, t, c});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* pg = grad_out.data() + (b * c + ch) * t;
      for (std::size_t i = 0; i < t; ++i) {
        dout_[(b * t + i) * c + ch] = pg[i];
      }
    }
  }

  dx_tokens_.resize({n, t, c});
  dctx_.resize(t * c);
  dattn_.resize(t * t);
  dscore_.resize(t * t);
  dq_.resize(t * c);
  dk_.resize(t * c);
  dv_.resize(t * c);

  for (std::size_t b = 0; b < n; ++b) {
    const float* xb = acts_.x_tokens.data() + b * t * c;
    const float* qb = acts_.q.data() + b * t * c;
    const float* kb = acts_.k.data() + b * t * c;
    const float* vb = acts_.v.data() + b * t * c;
    const float* ab = acts_.attn.data() + b * t * t;
    const float* cb = acts_.ctx.data() + b * t * c;
    const float* gb = dout_.data() + b * t * c;
    float* dxb = dx_tokens_.data() + b * t * c;

    // Residual: dX = dOut (projections accumulate on top below).
    std::copy_n(gb, t * c, dxb);

    // dWo += ctx^T . dOut;  dctx = dOut . Wo^T.
    tensor::gemm(Trans::kYes, Trans::kNo, c, c, t, cb, c, gb, c,
                 wo_.grad.data(), c, /*accumulate=*/true);
    tensor::gemm(Trans::kNo, Trans::kYes, t, c, c, gb, c,
                 wo_.value.data(), c, dctx_.data(), c, /*accumulate=*/false);

    // dattn = dctx . V^T;  dV = A^T . dctx.
    tensor::gemm(Trans::kNo, Trans::kYes, t, t, c, dctx_.data(), c, vb, c,
                 dattn_.data(), t, /*accumulate=*/false);
    tensor::gemm(Trans::kYes, Trans::kNo, t, c, t, ab, t, dctx_.data(), c,
                 dv_.data(), c, /*accumulate=*/false);

    // Softmax backward per row.
    for (std::size_t i = 0; i < t; ++i) {
      float row_dot = 0.0F;
      // ordered: ascending j within the row, mirroring the forward pass.
      for (std::size_t j = 0; j < t; ++j) {
        row_dot += dattn_[i * t + j] * ab[i * t + j];
      }
      for (std::size_t j = 0; j < t; ++j) {
        dscore_[i * t + j] =
            ab[i * t + j] * (dattn_[i * t + j] - row_dot) * inv_scale;
      }
    }

    // dQ = dscore . K;  dK = dscore^T . Q.
    tensor::gemm(Trans::kNo, Trans::kNo, t, c, t, dscore_.data(), t, kb, c,
                 dq_.data(), c, /*accumulate=*/false);
    tensor::gemm(Trans::kYes, Trans::kNo, t, c, t, dscore_.data(), t, qb, c,
                 dk_.data(), c, /*accumulate=*/false);

    // Projections: dW* += X^T . d*;  dX += d* . W*^T.
    const auto backprop_proj = [&](const std::vector<float>& dproj,
                                   Parameter& w) {
      tensor::gemm(Trans::kYes, Trans::kNo, c, c, t, xb, c, dproj.data(), c,
                   w.grad.data(), c, /*accumulate=*/true);
      tensor::gemm(Trans::kNo, Trans::kYes, t, c, c, dproj.data(), c,
                   w.value.data(), c, dxb, c, /*accumulate=*/true);
    };
    backprop_proj(dq_, wq_);
    backprop_proj(dk_, wk_);
    backprop_proj(dv_, wv_);
  }

  // Tokens back to [N, C, H, W].
  Tensor dx(in_shape_);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      float* pd = dx.data() + (b * c + ch) * t;
      for (std::size_t i = 0; i < t; ++i) {
        pd[i] = dx_tokens_[(b * t + i) * c + ch];
      }
    }
  }
  return dx;
}

}  // namespace bprom::nn
