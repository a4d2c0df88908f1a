#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace bprom::nn {
namespace {

float he_stddev(std::size_t fan_in) {
  return std::sqrt(2.0F / static_cast<float>(fan_in));
}

// Sharding threshold: below this many inner operations the pool dispatch
// overhead dominates and the serial loop wins.  The gate depends only on
// problem size, never on thread count, so which path runs is itself
// deterministic.  Forward shards write disjoint output slices and
// accumulate in the serial order, so the parallel forward is bit-identical
// to the serial one.  Backward passes shard in one of two ways:
//   - over an axis that owns its accumulators outright (channels for
//     depthwise conv / batchnorm, samples for dx scatter) — bit-identical
//     to the serial loop; or
//   - over the batch with per-shard dw/db partial buffers reduced in fixed
//     ascending-shard order (Linear, Conv2d, whose weight gradients are
//     shared across the whole batch).  The shard count is a constant, so
//     the float summation tree — and therefore every bit of the result —
//     is the same for any thread count.
constexpr std::size_t kParallelOps = std::size_t{1} << 21;

/// Shard body(i) for i in [0, n) over the default pool when the estimated
/// op count clears the threshold; run serially otherwise.
template <typename Body>
void shard_loop(std::size_t n, std::size_t total_ops, const Body& body) {
  if (n > 1 && total_ops >= kParallelOps) {
    util::parallel_for(n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

// Fixed shard count for batch-sharded gradient accumulation.  This is a
// constant — NOT the pool size — because the summation grouping must not
// change with the thread count if results are to stay bit-identical.
constexpr std::size_t kGradShards = 16;

/// Contiguous shard bounds: shard s of `shards` covers [lo, hi) of n items.
constexpr std::size_t shard_lo(std::size_t s, std::size_t shards,
                               std::size_t n) {
  return s * n / shards;
}

using tensor::Trans;

/// Reduce `shards` contiguous partial buffers of `len` floats with a
/// fixed-shape pairwise tree: parts[s] += parts[s + stride] for stride =
/// 1, 2, 4, ...; the total lands in parts[0].  The tree shape depends only
/// on the shard count, so the summation grouping — and every bit of the
/// result — is identical for any thread count; pair additions at each
/// level touch disjoint buffers, so they shard over the pool.  Shared by
/// Linear and Conv2d (closes the ROADMAP "tree reduction" item).
void reduce_shards_tree(float* parts, std::size_t shards, std::size_t len) {
  for (std::size_t stride = 1; stride < shards; stride *= 2) {
    const std::size_t pairs = (shards - stride + 2 * stride - 1) / (2 * stride);
    const auto add_pair = [&](std::size_t p) {
      float* dst = parts + p * 2 * stride * len;
      const float* src = dst + stride * len;
      for (std::size_t e = 0; e < len; ++e) dst[e] += src[e];
    };
    if (pairs > 1 && pairs * len >= kParallelOps) {
      util::parallel_for(pairs, add_pair);
    } else {
      for (std::size_t p = 0; p < pairs; ++p) add_pair(p);
    }
  }
}

/// db[o] += sum over samples [lo, hi) of g[i, o] (row-major [n, out]).
void accumulate_bias_grad(const float* g, std::size_t lo, std::size_t hi,
                          std::size_t out, float* db) {
  for (std::size_t i = lo; i < hi; ++i) {
    const float* gi = g + i * out;
    for (std::size_t o = 0; o < out; ++o) db[o] += gi[o];
  }
}

}  // namespace

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in, std::size_t out, util::Rng& rng)
    : in_(in),
      out_(out),
      weight_(Tensor::randn({out, in}, rng, he_stddev(in))),
      bias_(Tensor({out})) {}

Tensor Linear::forward(const Tensor& x, bool /*train*/) {
  assert(x.rank() == 2 && x.dim(1) == in_);
  input_ = x;
  const std::size_t n = x.dim(0);
  Tensor y({n, out_});
  // y = b (broadcast per row), then y += x . W^T.  The kernel folds
  // per-KC-panel register sums onto the bias — a different float grouping
  // than the pre-GEMM scalar loop (expectations were re-baselined), but
  // one that is bit-identical for any thread count.
  const float* b = bias_.value.data();
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(b, out_, y.data() + i * out_);
  }
  tensor::gemm(Trans::kNo, Trans::kYes, n, out_, in_, x.data(), in_,
               weight_.value.data(), in_, y.data(), out_,
               /*accumulate=*/true);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const std::size_t n = grad_out.dim(0);
  assert(grad_out.dim(1) == out_ && input_.dim(0) == n);
  // dx = G . W as one full-batch GEMM (tile-grid parallel inside the
  // kernel); zero gradient rows come back exactly zero because every
  // product in them is ±0 and the row sums to ±0.
  Tensor dx({n, in_});
  tensor::gemm(Trans::kNo, Trans::kNo, n, in_, out_, grad_out.data(), out_,
               weight_.value.data(), in_, dx.data(), in_,
               /*accumulate=*/false);

  const std::size_t ops = n * out_ * in_;
  if (n < 2 || ops < kParallelOps) {
    // dW += G^T . X straight into the gradient; db += column sums of G.
    tensor::gemm(Trans::kYes, Trans::kNo, out_, in_, n, grad_out.data(),
                 out_, input_.data(), in_, weight_.grad.data(), in_,
                 /*accumulate=*/true);
    accumulate_bias_grad(grad_out.data(), 0, n, out_, bias_.grad.data());
    return dx;
  }

  // Batch-sharded: shard s owns dw/db partial buffers filled by one
  // per-shard GEMM, then the fixed-shape pairwise tree folds the partials
  // — both the shard grid and the tree depend only on n, so the result is
  // bit-identical for any thread count.  The partial buffers are persistent
  // members, so the steady state allocates nothing.
  const std::size_t shards = std::min(n, kGradShards);
  const std::size_t wlen = out_ * in_;
  dw_part_.resize(shards * wlen);
  db_part_.assign(shards * out_, 0.0F);
  util::parallel_for(shards, [&](std::size_t s) {
    const std::size_t lo = shard_lo(s, shards, n);
    const std::size_t hi = shard_lo(s + 1, shards, n);
    tensor::gemm(Trans::kYes, Trans::kNo, out_, in_, hi - lo,
                 grad_out.data() + lo * out_, out_,
                 input_.data() + lo * in_, in_, dw_part_.data() + s * wlen,
                 in_, /*accumulate=*/false, /*allow_parallel=*/false);
    accumulate_bias_grad(grad_out.data(), lo, hi, out_,
                         db_part_.data() + s * out_);
  });
  reduce_shards_tree(dw_part_.data(), shards, wlen);
  reduce_shards_tree(db_part_.data(), shards, out_);
  float* dw = weight_.grad.data();
  float* db = bias_.grad.data();
  for (std::size_t e = 0; e < wlen; ++e) dw[e] += dw_part_[e];
  for (std::size_t o = 0; o < out_; ++o) db[o] += db_part_[o];
  return dx;
}

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_c, std::size_t out_c, std::size_t kernel,
               std::size_t stride, std::size_t pad, util::Rng& rng)
    : in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor::randn({out_c, in_c * kernel * kernel}, rng,
                            he_stddev(in_c * kernel * kernel))),
      bias_(Tensor({out_c})) {}

Tensor Conv2d::forward(const Tensor& x, bool /*train*/) {
  assert(x.rank() == 4 && x.dim(1) == in_c_);
  batch_ = x.dim(0);
  geom_ = tensor::ConvGeometry{in_c_, x.dim(2), x.dim(3),
                               kernel_, stride_, pad_};
  // The im2col matrix is rebuilt into the persistent member buffer, so the
  // steady-state forward reuses one allocation across calls.
  tensor::im2col_into(x, geom_, cols_);
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  const std::size_t hw = oh * ow;
  const std::size_t patch = geom_.patch_size();
  Tensor y({batch_, out_c_, oh, ow});
  const float* w = weight_.value.data();
  const float* b = bias_.value.data();
  // Per sample: y_b = W . cols_b on top of the broadcast bias, with cols_b
  // the sample's patch-major [patch, hw] block.  When the batch loop shards
  // over the pool the per-sample GEMMs stay serial; a small batch lets one
  // GEMM use the tile grid instead.  Both choices depend only on problem
  // size, and the kernel arithmetic is identical either way, so results are
  // bit-identical for any thread count.
  const bool shard_batch =
      batch_ > 1 && batch_ * hw * out_c_ * patch >= kParallelOps;
  const auto sample = [&](std::size_t bi) {
    float* yb = y.data() + bi * out_c_ * hw;
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      std::fill_n(yb + oc * hw, hw, b[oc]);
    }
    tensor::gemm(Trans::kNo, Trans::kNo, out_c_, hw, patch, w, patch,
                 cols_.data() + bi * patch * hw, hw, yb, hw,
                 /*accumulate=*/true, /*allow_parallel=*/!shard_batch);
  };
  if (shard_batch) {
    util::parallel_for(batch_, sample);
  } else {
    for (std::size_t bi = 0; bi < batch_; ++bi) sample(bi);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  const std::size_t hw = oh * ow;
  const std::size_t patch = geom_.patch_size();
  assert(grad_out.dim(0) == batch_ && grad_out.dim(1) == out_c_);

  dcols_.resize({batch_ * patch, hw});
  const float* w = weight_.value.data();
  const std::size_t ops = batch_ * hw * out_c_ * patch;
  const bool shard_batch = batch_ >= 2 && ops >= kParallelOps;

  // Accumulate sample range [lo, hi): dcols blocks are owned by the range
  // (dcols_b = W^T . G_b, patch-major like cols_); dw/db accumulate into the
  // supplied buffers sample-by-sample in ascending order
  // (dW_b = G_b . cols_b^T).
  const auto accumulate = [&](std::size_t lo, std::size_t hi, float* dw,
                              float* db) {
    for (std::size_t bi = lo; bi < hi; ++bi) {
      const float* gb = grad_out.data() + bi * out_c_ * hw;
      const float* colb = cols_.data() + bi * patch * hw;
      tensor::gemm(Trans::kYes, Trans::kNo, patch, hw, out_c_, w, patch, gb,
                   hw, dcols_.data() + bi * patch * hw, hw,
                   /*accumulate=*/false, /*allow_parallel=*/!shard_batch);
      tensor::gemm(Trans::kNo, Trans::kYes, out_c_, patch, hw, gb, hw, colb,
                   hw, dw, patch, /*accumulate=*/true,
                   /*allow_parallel=*/!shard_batch);
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        const float* g = gb + oc * hw;
        float acc = 0.0F;
        // ordered: sequential over the spatial plane, every thread count.
        for (std::size_t p = 0; p < hw; ++p) acc += g[p];
        db[oc] += acc;
      }
    }
  };

  if (!shard_batch) {
    accumulate(0, batch_, weight_.grad.data(), bias_.grad.data());
    return tensor::col2im(dcols_, geom_, batch_);
  }

  // Batch-sharded with per-shard dw/db partials folded by the fixed-shape
  // pairwise tree — shard grid and tree depend only on the batch size, so
  // the result is bit-identical for any thread count.  Partial buffers are
  // persistent members: the steady state allocates nothing.
  const std::size_t shards = std::min(batch_, kGradShards);
  const std::size_t wlen = out_c_ * patch;
  dw_part_.assign(shards * wlen, 0.0F);
  db_part_.assign(shards * out_c_, 0.0F);
  util::parallel_for(shards, [&](std::size_t s) {
    accumulate(shard_lo(s, shards, batch_), shard_lo(s + 1, shards, batch_),
               dw_part_.data() + s * wlen, db_part_.data() + s * out_c_);
  });
  reduce_shards_tree(dw_part_.data(), shards, wlen);
  reduce_shards_tree(db_part_.data(), shards, out_c_);
  float* dw = weight_.grad.data();
  float* db = bias_.grad.data();
  for (std::size_t e = 0; e < wlen; ++e) dw[e] += dw_part_[e];
  for (std::size_t oc = 0; oc < out_c_; ++oc) db[oc] += db_part_[oc];
  return tensor::col2im(dcols_, geom_, batch_);
}

// ------------------------------------------------------- DepthwiseConv2d

DepthwiseConv2d::DepthwiseConv2d(std::size_t channels, std::size_t kernel,
                                 std::size_t stride, std::size_t pad,
                                 util::Rng& rng)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor::randn({channels, kernel * kernel}, rng,
                            he_stddev(kernel * kernel))),
      bias_(Tensor({channels})) {}

Tensor DepthwiseConv2d::forward(const Tensor& x, bool /*train*/) {
  assert(x.rank() == 4 && x.dim(1) == channels_);
  input_ = x;
  const std::size_t n = x.dim(0);
  const tensor::ConvGeometry g{channels_, x.dim(2), x.dim(3),
                               kernel_, stride_, pad_};
  const std::size_t ow = g.out_w();
  const std::size_t hw = g.out_h() * ow;
  const std::size_t plane = g.in_h * g.in_w;
  Tensor y({n, channels_, g.out_h(), ow});
  // Row-wise: each output plane starts at the bias, then every kernel tap
  // (ky, kx) in ascending order adds w * x across the output rectangle it
  // reaches inside the image — per output, the additions and their order
  // of a per-pixel loop that skips padding taps.  Each sample writes a
  // disjoint output slice — bit-identical when sharded.
  shard_loop(n, n * channels_ * hw * kernel_ * kernel_, [&](std::size_t b) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float* wc = weight_.value.data() + c * kernel_ * kernel_;
      const float* xc = x.data() + (b * channels_ + c) * plane;
      float* yc = y.data() + (b * channels_ + c) * hw;
      std::fill_n(yc, hw, bias_.value[c]);
      for (std::size_t ky = 0; ky < kernel_; ++ky) {
        const tensor::OutputSpan ys = g.rows_for_tap(ky);
        for (std::size_t kx = 0; kx < kernel_; ++kx) {
          const tensor::OutputSpan xs = g.cols_for_tap(kx);
          if (xs.lo == xs.hi) continue;
          const float wk = wc[ky * kernel_ + kx];
          // `at` indexes the first in-image pixel output row oy reads.
          std::size_t at = (ys.lo * stride_ + ky - pad_) * g.in_w +
                           xs.lo * stride_ + kx - pad_;
          for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
            float* yr = yc + oy * ow;
            for (std::size_t ox = xs.lo; ox < xs.hi; ++ox) {
              // ordered: ascending (ky, kx) taps per output pixel.
              yr[ox] += wk * xc[at + (ox - xs.lo) * stride_];
            }
            at += stride_ * g.in_w;
          }
        }
      }
    }
  });
  return y;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  const std::size_t n = input_.dim(0);
  const std::size_t h = input_.dim(2);
  const std::size_t w = input_.dim(3);
  const std::size_t oh = grad_out.dim(2);
  const std::size_t ow = grad_out.dim(3);
  Tensor dx(input_.shape());
  // Depthwise gradients are fully channel-separable: channel c alone owns
  // dw[c], db[c], and the (·, c, ·, ·) slice of dx, so sharding over
  // channels needs no partial buffers.  Per channel the samples run in
  // ascending order — the same per-accumulator addition sequence as the
  // serial b-outer/c-inner loop, so the result is bit-identical.
  shard_loop(channels_, n * channels_ * oh * ow * kernel_ * kernel_,
             [&](std::size_t c) {
    const float* wc = weight_.value.data() + c * kernel_ * kernel_;
    float* dwc = weight_.grad.data() + c * kernel_ * kernel_;
    for (std::size_t b = 0; b < n; ++b) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = grad_out.at4(b, c, oy, ox);
          if (g == 0.0F) continue;
          bias_.grad[c] += g;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const long iy = static_cast<long>(oy * stride_ + ky) -
                            static_cast<long>(pad_);
            if (iy < 0 || iy >= static_cast<long>(h)) continue;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const long ix = static_cast<long>(ox * stride_ + kx) -
                              static_cast<long>(pad_);
              if (ix < 0 || ix >= static_cast<long>(w)) continue;
              const auto uy = static_cast<std::size_t>(iy);
              const auto ux = static_cast<std::size_t>(ix);
              dwc[ky * kernel_ + kx] += g * input_.at4(b, c, uy, ux);
              dx.at4(b, c, uy, ux) += g * wc[ky * kernel_ + kx];
            }
          }
        }
      }
    }
  });
  return dx;
}

// ------------------------------------------------------------ BatchNorm2d

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor({channels}, 1.0F)),
      beta_(Tensor({channels})),
      running_mean_(channels, 0.0F),
      running_var_(channels, 1.0F) {}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  assert(x.rank() == 4 && x.dim(1) == channels_);
  last_train_ = train;
  const std::size_t n = x.dim(0);
  const std::size_t hw = x.dim(2) * x.dim(3);
  const auto count = static_cast<float>(n * hw);

  batch_mean_.assign(channels_, 0.0F);
  batch_inv_std_.assign(channels_, 0.0F);
  std::vector<float> var(channels_, 0.0F);

  if (train) {
    // Channel totals accumulate per-sample partial sums in ascending batch
    // order — the same additions as the serial loop, so sharding over
    // channels is bit-identical.
    shard_loop(channels_, n * channels_ * hw, [&](std::size_t c) {
      float total = 0.0F;
      for (std::size_t b = 0; b < n; ++b) {
        const float* px = x.data() + (b * channels_ + c) * hw;
        float acc = 0.0F;
        // ordered: batch-major then spatial, independent of thread count
        // (the shard owns the whole channel).
        for (std::size_t i = 0; i < hw; ++i) acc += px[i];
        total += acc;
      }
      batch_mean_[c] = total / count;
    });
    shard_loop(channels_, n * channels_ * hw, [&](std::size_t c) {
      float total = 0.0F;
      for (std::size_t b = 0; b < n; ++b) {
        const float* px = x.data() + (b * channels_ + c) * hw;
        float acc = 0.0F;
        // ordered: batch-major then spatial, same walk as the mean pass
        // (shards own whole channels, so order is thread-count-invariant).
        for (std::size_t i = 0; i < hw; ++i) {
          const float d = px[i] - batch_mean_[c];
          acc += d * d;   // ordered: see above
        }
        total += acc;  // ordered: see above
      }
      var[c] = total / count;
      running_mean_[c] =
          (1.0F - momentum_) * running_mean_[c] + momentum_ * batch_mean_[c];
      running_var_[c] =
          (1.0F - momentum_) * running_var_[c] + momentum_ * var[c];
    });
  } else {
    batch_mean_ = running_mean_;
    var = running_var_;
  }
  for (std::size_t c = 0; c < channels_; ++c) {
    batch_inv_std_[c] = 1.0F / std::sqrt(var[c] + eps_);
  }

  normalized_.resize(x.shape());
  Tensor y(x.shape());
  shard_loop(n, n * channels_ * hw, [&](std::size_t b) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float* px = x.data() + (b * channels_ + c) * hw;
      float* pn = normalized_.data() + (b * channels_ + c) * hw;
      float* py = y.data() + (b * channels_ + c) * hw;
      const float m = batch_mean_[c];
      const float is = batch_inv_std_[c];
      const float g = gamma_.value[c];
      const float bt = beta_.value[c];
      for (std::size_t i = 0; i < hw; ++i) {
        pn[i] = (px[i] - m) * is;
        py[i] = g * pn[i] + bt;
      }
    }
  });
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  const std::size_t n = grad_out.dim(0);
  const std::size_t hw = grad_out.dim(2) * grad_out.dim(3);
  const auto count = static_cast<float>(n * hw);
  Tensor dx(grad_out.shape());

  // Channel c alone owns gamma/beta grads [c] and the (·, c, ·, ·) slice of
  // dx, and the per-channel reductions run in the serial order, so sharding
  // over channels is bit-identical to the serial loop.
  shard_loop(channels_, n * channels_ * hw, [&](std::size_t c) {
    float sum_g = 0.0F;
    float sum_gx = 0.0F;
    for (std::size_t b = 0; b < n; ++b) {
      const float* pg = grad_out.data() + (b * channels_ + c) * hw;
      const float* pn = normalized_.data() + (b * channels_ + c) * hw;
      // ordered: batch-major then spatial — the backward reductions use
      // the exact walk of the forward statistics.
      for (std::size_t i = 0; i < hw; ++i) {
        sum_g += pg[i];
        sum_gx += pg[i] * pn[i];  // ordered: see above
      }
    }
    gamma_.grad[c] += sum_gx;
    beta_.grad[c] += sum_g;

    const float g = gamma_.value[c];
    const float is = batch_inv_std_[c];
    for (std::size_t b = 0; b < n; ++b) {
      const float* pg = grad_out.data() + (b * channels_ + c) * hw;
      const float* pn = normalized_.data() + (b * channels_ + c) * hw;
      float* pd = dx.data() + (b * channels_ + c) * hw;
      for (std::size_t i = 0; i < hw; ++i) {
        if (last_train_) {
          pd[i] = g * is *
                  (pg[i] - sum_g / count - pn[i] * sum_gx / count);
        } else {
          pd[i] = g * is * pg[i];
        }
      }
    }
  });
  return dx;
}

// ------------------------------------------------------------------ ReLU

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  mask_.resize(x.shape());
  Tensor y(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool pos = x[i] > 0.0F;
    mask_[i] = pos ? 1.0F : 0.0F;
    y[i] = pos ? x[i] : 0.0F;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor dx(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    dx[i] = grad_out[i] * mask_[i];
  }
  return dx;
}

// ------------------------------------------------------------------ GELU

Tensor Gelu::forward(const Tensor& x, bool /*train*/) {
  input_ = x;
  Tensor y(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x[i];
    y[i] = 0.5F * v *
           (1.0F + std::tanh(0.7978845608F * (v + 0.044715F * v * v * v)));
  }
  return y;
}

Tensor Gelu::backward(const Tensor& grad_out) {
  Tensor dx(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    const float v = input_[i];
    const float u = 0.7978845608F * (v + 0.044715F * v * v * v);
    const float t = std::tanh(u);
    const float du = 0.7978845608F * (1.0F + 3.0F * 0.044715F * v * v);
    const float d = 0.5F * (1.0F + t) + 0.5F * v * (1.0F - t * t) * du;
    dx[i] = grad_out[i] * d;
  }
  return dx;
}

// ------------------------------------------------------------- MaxPool2d

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {}

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/) {
  assert(x.rank() == 4);
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = h / window_;
  const std::size_t ow = w / window_;
  Tensor y({n, c, oh, ow});
  argmax_.assign(n * c * oh * ow, 0);
  shard_loop(n, n * c * h * w, [&](std::size_t b) {
    std::size_t out_i = b * c * oh * ow;
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++out_i) {
          // Seed below every representable input so windows whose values
          // are all <= -1e30 still pool their true maximum (the old
          // -1e30F sentinel clamped them and pointed argmax at index 0).
          float best = -std::numeric_limits<float>::infinity();
          std::size_t arg = 0;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t iy = oy * window_ + ky;
              const std::size_t ix = ox * window_ + kx;
              const std::size_t flat =
                  ((b * c + ch) * h + iy) * w + ix;
              if (x[flat] > best) {
                best = x[flat];
                arg = flat;
              }
            }
          }
          y[out_i] = best;
          argmax_[out_i] = arg;
        }
      }
    }
  });
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  Tensor dx(in_shape_);
  // The argmax of an output element always lies inside that sample's input
  // slice, so sharding the scatter over samples keeps writes disjoint.
  const std::size_t n = in_shape_[0];
  const std::size_t per_sample = grad_out.size() / n;
  shard_loop(n, grad_out.size(), [&](std::size_t b) {
    for (std::size_t i = b * per_sample; i < (b + 1) * per_sample; ++i) {
      dx[argmax_[i]] += grad_out[i];
    }
  });
  return dx;
}

// --------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& x, bool /*train*/) {
  assert(x.rank() == 4);
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0);
  const std::size_t c = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  shard_loop(n, n * c * hw, [&](std::size_t b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* px = x.data() + (b * c + ch) * hw;
      float acc = 0.0F;
      // ordered: sequential over the pooled plane (shards split on b only).
      for (std::size_t i = 0; i < hw; ++i) acc += px[i];
      y.at2(b, ch) = acc / static_cast<float>(hw);
    }
  });
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  Tensor dx(in_shape_);
  const std::size_t n = in_shape_[0];
  const std::size_t c = in_shape_[1];
  const std::size_t hw = in_shape_[2] * in_shape_[3];
  shard_loop(n, n * c * hw, [&](std::size_t b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.at2(b, ch) / static_cast<float>(hw);
      float* pd = dx.data() + (b * c + ch) * hw;
      for (std::size_t i = 0; i < hw; ++i) pd[i] = g;
    }
  });
  return dx;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& x, bool train) {
  return forward(Tensor(x), train);
}

Tensor Flatten::forward(Tensor&& x, bool /*train*/) {
  // Shape-only: reshape the moved buffer — no copy of the activation.
  in_shape_ = x.shape();
  Tensor y = std::move(x);
  y.reshape({in_shape_[0], y.size() / in_shape_[0]});
  return y;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return backward(Tensor(grad_out));
}

Tensor Flatten::backward(Tensor&& grad_out) {
  Tensor dx = std::move(grad_out);
  dx.reshape(in_shape_);
  return dx;
}

}  // namespace bprom::nn
