// The ISA-specific half of the lane convolutions: Conv2d and
// DepthwiseConv2d over one chunk of kLanes rows stored feature-major with
// the row innermost (tensor/lanes.hpp).  Every feature is one contiguous
// kLanes-float vector, handled as generic SIMD vectors of independent
// lanes, so no arithmetic is reassociated.
// tensor/lane_conv.cpp instantiates the portable baseline and
// tensor/gemm_avx2.cpp (compiled with -mavx2) the AVX2 variant; nothing
// else includes this header.
//
// Bits: per output and lane, the products and their order are those of the
// per-row code.  Conv2d sums w * x over the in-image taps in ascending
// (c, ky, kx) order, each kGemmKc-tap panel from +0, and folds each panel
// sum onto the bias in ascending order, exactly as the im2col GEMM folds
// its KC panels.  The GEMM also adds w * 0 for every padding tap; skipping
// it gives the same bits for finite weights, because a sum that starts at
// +0 never becomes -0 under round-to-nearest, so adding +-0 never changes
// it.  Lane-wise multiplies and adds round like scalar ones, since the
// build passes -ffp-contract=off.
//
// Linkage rule (see tensor/gemm_tile.hpp): everything here sits in an
// anonymous namespace and calls nothing with external linkage — no std::
// algorithms, no ConvGeometry members — or the -mavx2 copy of an inline
// function could be the one the baseline path runs.
#pragma once

#include <cstddef>

#include "tensor/gemm_variant.hpp"
#include "tensor/lanes.hpp"

namespace bprom::tensor::detail {
namespace {

/// V floats as one GCC/Clang generic vector, V the width of the
/// translation unit's SIMD registers (4 for SSE2, 8 for AVX2): a 16-lane
/// feature is kLanes / V of them.  Mem is the same vector at float
/// alignment, for loads and stores of chunk data.
template <std::size_t V>
struct Simd {
  typedef float Vec __attribute__((vector_size(V * sizeof(float))));
  typedef float Mem __attribute__((vector_size(V * sizeof(float)),
                                   aligned(alignof(float)), may_alias));
  static constexpr std::size_t kParts = kLanes / V;
  static_assert(kLanes % V == 0, "a feature is a whole number of vectors");

  static void load(Vec (&v)[kParts], const float* p) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < kParts; ++q) {
      v[q] = *reinterpret_cast<const Mem*>(p + q * V);
    }
  }
  static void store(float* p, const Vec (&v)[kParts]) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < kParts; ++q) {
      *reinterpret_cast<Mem*>(p + q * V) = v[q];
    }
  }
  static void splat(Vec (&v)[kParts], float s) {
    float same[V];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < V; ++r) same[r] = s;
#pragma GCC unroll 4
    for (std::size_t q = 0; q < kParts; ++q) {
      v[q] = *reinterpret_cast<const Mem*>(same);
    }
  }
};

/// Taps [lo, hi) of one axis whose input index o * stride + tap - pad lies
/// inside [0, in) for output position o; empty when lo == hi.
struct TapSpan {
  std::size_t lo;
  std::size_t hi;
};

TapSpan taps_inside(std::size_t o, std::size_t in, std::size_t kernel,
                    std::size_t stride, std::size_t pad) {
  const std::size_t first = o * stride;
  const std::size_t lo = first < pad ? pad - first : 0;
  std::size_t hi = in + pad > first ? in + pad - first : 0;
  if (hi > kernel) hi = kernel;
  return {lo < hi ? lo : hi, hi};
}

/// y[b] += acc[b] for the Ocb output features of one pixel (`step` floats
/// apart), then acc = 0: one panel sum folded onto the bias.  Always
/// inlined: an out-of-line call would take the accumulators' address and
/// keep them in memory instead of registers.
template <std::size_t Ocb, std::size_t V>
[[gnu::always_inline]] inline void fold_panel(typename Simd<V>::Vec (&acc)[Ocb][Simd<V>::kParts], float* y,
                std::size_t step) {
  using S = Simd<V>;
  for (std::size_t b = 0; b < Ocb; ++b) {
    typename S::Vec out[S::kParts];
    S::load(out, y + b * step);
    for (std::size_t q = 0; q < S::kParts; ++q) {
      // ordered: panel sums fold onto the bias in ascending panel order.
      out[q] += acc[b][q];
      acc[b][q] = typename S::Vec{};
    }
    S::store(y + b * step, out);
  }
}

/// y[oc0 .. oc0+Ocb) at one output pixel: an Ocb-feature register block
/// that sums each panel from +0 and folds it onto y, which holds the bias.
template <std::size_t Ocb, std::size_t V>
void conv_block(const LaneConvArgs& a, std::size_t oc0, std::size_t oy,
                std::size_t ox, TapSpan ys, TapSpan xs) {
  using S = Simd<V>;
  constexpr std::size_t kParts = S::kParts;
  const std::size_t k = a.kernel;
  const std::size_t kk = k * k;
  const std::size_t patch = a.in_c * kk;
  const std::size_t plane = a.in_h * a.in_w;
  const std::size_t step = a.out_h * a.out_w * kLanes;
  float* y = a.y + oc0 * step + (oy * a.out_w + ox) * kLanes;
  const float* w = a.weight + oc0 * patch;

  typename S::Vec acc[Ocb][kParts] = {};
#pragma GCC unroll 8
  for (std::size_t b = 0; b < Ocb; ++b) {
    typename S::Vec bias[kParts];
    S::splat(bias, a.bias[oc0 + b]);
    S::store(y + b * step, bias);
  }
  std::size_t panel_end = kGemmKc;
  // Tap p of the patch reads x at `x_tap`; every panel boundary passed
  // folds, skipped taps included.
  const auto tap = [&](std::size_t p, const float* x_tap) {
    while (p >= panel_end) {
      fold_panel<Ocb, V>(acc, y, step);
      panel_end += kGemmKc;
    }
    typename S::Vec xv[kParts];
    S::load(xv, x_tap);
#pragma GCC unroll 8
    for (std::size_t b = 0; b < Ocb; ++b) {
      const float wv = w[b * patch + p];
#pragma GCC unroll 4
      for (std::size_t q = 0; q < kParts; ++q) {
        // ordered: ascending (c, ky, kx) taps within the panel.
        acc[b][q] += wv * xv[q];
      }
    }
  };
  if (k == 1) {
    // A 1 x 1 kernel has one tap per channel: one loop over channels.
    if (ys.lo < ys.hi && xs.lo < xs.hi) {
      const float* x_px =
          a.x + ((oy * a.stride - a.pad) * a.in_w + ox * a.stride - a.pad) *
                    kLanes;
      for (std::size_t c = 0; c < a.in_c; ++c) {
        tap(c, x_px + c * plane * kLanes);
      }
    }
  } else {
    for (std::size_t c = 0; c < a.in_c; ++c) {
      for (std::size_t ky = ys.lo; ky < ys.hi; ++ky) {
        const float* x_row =
            a.x + (c * plane + (oy * a.stride + ky - a.pad) * a.in_w) * kLanes;
        for (std::size_t kx = xs.lo; kx < xs.hi; ++kx) {
          tap(c * kk + ky * k + kx,
              x_row + (ox * a.stride + kx - a.pad) * kLanes);
        }
      }
    }
  }
  // The open panel, and any later panel whose taps were all padding (it
  // folds +0, as the GEMM's does).
  for (; panel_end - kGemmKc < patch; panel_end += kGemmKc) {
    fold_panel<Ocb, V>(acc, y, step);
  }
}

/// Conv2d over a lane chunk: Ocb output channels per register block, V
/// floats per vector.
template <std::size_t Ocb, std::size_t V>
void lane_conv(const LaneConvArgs& a) {
  for (std::size_t oy = 0; oy < a.out_h; ++oy) {
    const TapSpan ys = taps_inside(oy, a.in_h, a.kernel, a.stride, a.pad);
    for (std::size_t ox = 0; ox < a.out_w; ++ox) {
      const TapSpan xs = taps_inside(ox, a.in_w, a.kernel, a.stride, a.pad);
      std::size_t oc = 0;
      for (; oc + Ocb <= a.out_c; oc += Ocb) {
        conv_block<Ocb, V>(a, oc, oy, ox, ys, xs);
      }
      for (; oc < a.out_c; ++oc) conv_block<1, V>(a, oc, oy, ox, ys, xs);
    }
  }
}

/// Channels [c0, c0 + Cb) of one output pixel of a depthwise convolution:
/// each output starts at its channel's bias, then adds every in-image tap
/// in ascending (ky, kx) order.  The Cb channels' sums are independent, so
/// their additions overlap instead of waiting on one another.
template <std::size_t Cb, std::size_t V>
void depthwise_block(const LaneConvArgs& a, std::size_t c0, std::size_t oy,
                     std::size_t ox, TapSpan ys, TapSpan xs) {
  using S = Simd<V>;
  constexpr std::size_t kParts = S::kParts;
  const std::size_t k = a.kernel;
  const std::size_t plane = a.in_h * a.in_w * kLanes;
  typename S::Vec acc[Cb][kParts];
#pragma GCC unroll 8
  for (std::size_t b = 0; b < Cb; ++b) S::splat(acc[b], a.bias[c0 + b]);
  for (std::size_t ky = ys.lo; ky < ys.hi; ++ky) {
    const float* x_row =
        a.x + c0 * plane + (oy * a.stride + ky - a.pad) * a.in_w * kLanes;
    for (std::size_t kx = xs.lo; kx < xs.hi; ++kx) {
      const float* x_tap = x_row + (ox * a.stride + kx - a.pad) * kLanes;
#pragma GCC unroll 8
      for (std::size_t b = 0; b < Cb; ++b) {
        const float wv = a.weight[(c0 + b) * k * k + ky * k + kx];
        typename S::Vec xv[kParts];
        S::load(xv, x_tap + b * plane);
#pragma GCC unroll 4
        for (std::size_t q = 0; q < kParts; ++q) {
          // ordered: ascending (ky, kx) taps per output, from the bias.
          acc[b][q] += wv * xv[q];
        }
      }
    }
  }
  const std::size_t out_plane = a.out_h * a.out_w * kLanes;
  float* y = a.y + c0 * out_plane + (oy * a.out_w + ox) * kLanes;
#pragma GCC unroll 8
  for (std::size_t b = 0; b < Cb; ++b) S::store(y + b * out_plane, acc[b]);
}

/// DepthwiseConv2d over a lane chunk, Cb channels per register block.
template <std::size_t Cb, std::size_t V>
void lane_depthwise(const LaneConvArgs& a) {
  for (std::size_t oy = 0; oy < a.out_h; ++oy) {
    const TapSpan ys = taps_inside(oy, a.in_h, a.kernel, a.stride, a.pad);
    for (std::size_t ox = 0; ox < a.out_w; ++ox) {
      const TapSpan xs = taps_inside(ox, a.in_w, a.kernel, a.stride, a.pad);
      std::size_t c = 0;
      for (; c + Cb <= a.in_c; c += Cb) {
        depthwise_block<Cb, V>(a, c, oy, ox, ys, xs);
      }
      for (; c < a.in_c; ++c) depthwise_block<1, V>(a, c, oy, ox, ys, xs);
    }
  }
}

}  // namespace
}  // namespace bprom::tensor::detail
