// The ISA-specific half of the lane convolutions: Conv2d and
// DepthwiseConv2d over one chunk of kLanes rows stored feature-major with
// the row innermost (tensor/lanes.hpp).  Every feature is one contiguous
// kLanes-float vector, handled as generic SIMD vectors of independent
// lanes, so no arithmetic is reassociated.
// tensor/lane_conv.cpp instantiates the portable baseline,
// tensor/gemm_avx2.cpp (compiled with -mavx2) the AVX2 variant and
// tensor/gemm_avx512.cpp (compiled with -mavx512f) the AVX-512 Conv2d;
// nothing else includes this header.
//
// Bits: per output and lane, the products and their order are those of the
// per-row code.  Conv2d reads a zero-padded input (tensor/lane_conv.cpp
// copies it) and sums w * x over every tap of the patch in ascending
// (c, ky, kx) order, padding taps included as w * 0, each kGemmKc-tap panel
// from +0, and folds each panel sum onto the bias in ascending order:
// exactly the additions of the im2col GEMM, zero products and all, so a
// non-finite weight meets padding as inf * 0 = NaN there too.
// DepthwiseConv2d starts each output at the bias and adds only its
// in-image taps, as its row-major forward does; it must skip the padding,
// since a -0 bias plus a +0 padding product would give +0.  The epilogue
// (LaneEpilogue) then runs BatchNorm2d::infer's and ReLU::infer's
// per-element operations on the finished vector, in the same order.
// Lane-wise multiplies and adds round like scalar ones, since the build
// passes -ffp-contract=off.
//
// Linkage rule (see tensor/gemm_tile.hpp): everything here sits in an
// anonymous namespace and calls nothing with external linkage — no std::
// algorithms, no ConvGeometry members — or the -mavx2 or -mavx512f copy of
// an inline function could be the one the baseline path runs.
#pragma once

#include <cstddef>

#include "tensor/gemm_variant.hpp"
#include "tensor/lanes.hpp"

namespace bprom::tensor::detail {
namespace {

/// V floats as one GCC/Clang generic vector, V the width of the
/// translation unit's SIMD registers (4 for SSE2, 8 for AVX2, 16 for
/// AVX-512): a 16-lane feature is kLanes / V of them.  Mem is the same
/// vector at float alignment, for loads and stores of chunk data.
template <std::size_t V>
struct Simd {
  typedef float Vec __attribute__((vector_size(V * sizeof(float))));
  typedef int Mask __attribute__((vector_size(V * sizeof(float))));
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
#pragma GCC unroll 16
    for (std::size_t r = 0; r < V; ++r) same[r] = s;
#pragma GCC unroll 4
    for (std::size_t q = 0; q < kParts; ++q) {
      v[q] = *reinterpret_cast<const Mem*>(same);
    }
  }
  /// p > 0 ? p : 0 per lane: the compare's all-ones lanes keep p, its zero
  /// lanes give +0, so NaN and -0 become +0 as in ReLU::infer.
  static Vec relu(Vec v) { return (Vec)((Mask)v & (v > Vec{})); }
};

/// The epilogue on one finished output vector of channel c.  Always
/// inlined, like everything that touches a register block.
template <std::size_t V>
[[gnu::always_inline]] inline void finish(
    typename Simd<V>::Vec (&v)[Simd<V>::kParts], const LaneEpilogue& e,
    std::size_t c) {
  using S = Simd<V>;
  if (e.mean != nullptr) {
    const float m = e.mean[c];
    const float s = e.inv_std[c];
    const float g = e.gamma[c];
    const float bt = e.beta[c];
#pragma GCC unroll 4
    for (std::size_t q = 0; q < S::kParts; ++q) {
      const typename S::Vec n = (v[q] - m) * s;
      v[q] = g * n + bt;
    }
  }
  if (e.relu) {
#pragma GCC unroll 4
    for (std::size_t q = 0; q < S::kParts; ++q) v[q] = S::relu(v[q]);
  }
}

/// y[oc0 .. oc0+Ocb) at output pixels (oy, ox0 .. ox0+Px): an Ocb x Px
/// register block, so each weight broadcast feeds Px pixels.  Each panel
/// of taps sums from +0 through the tap-offset table; the first panel
/// folds onto the bias, each later one onto y, and the last fold runs the
/// epilogue before it stores.
template <std::size_t Ocb, std::size_t Px, std::size_t V>
void conv_block(const LaneConvArgs& a, std::size_t oc0, std::size_t oy,
                std::size_t ox0) {
  using S = Simd<V>;
  using Vec = typename S::Vec;
  constexpr std::size_t kParts = S::kParts;
  const std::size_t patch = a.in_c * a.kernel * a.kernel;
  const std::size_t step = a.out_h * a.out_w * kLanes;
  const std::size_t px_step = a.stride * kLanes;
  const float* x0 = a.x + (oy * a.stride * a.in_w + ox0 * a.stride) * kLanes;
  float* y = a.y + oc0 * step + (oy * a.out_w + ox0) * kLanes;
  const float* w = a.weight + oc0 * patch;
  for (std::size_t p0 = 0; p0 < patch; p0 += kGemmKc) {
    const std::size_t p1 = patch - p0 > kGemmKc ? p0 + kGemmKc : patch;
    Vec acc[Ocb][Px][kParts] = {};
    for (std::size_t p = p0; p < p1; ++p) {
      const float* x_tap = x0 + a.taps[p];
      Vec xv[Px][kParts];
#pragma GCC unroll 4
      for (std::size_t j = 0; j < Px; ++j) S::load(xv[j], x_tap + j * px_step);
#pragma GCC unroll 4
      for (std::size_t b = 0; b < Ocb; ++b) {
        const float wv = w[b * patch + p];
#pragma GCC unroll 4
        for (std::size_t j = 0; j < Px; ++j) {
#pragma GCC unroll 4
          for (std::size_t q = 0; q < kParts; ++q) {
            // ordered: ascending (c, ky, kx) taps within the panel.
            acc[b][j][q] += wv * xv[j][q];
          }
        }
      }
    }
#pragma GCC unroll 4
    for (std::size_t b = 0; b < Ocb; ++b) {
#pragma GCC unroll 4
      for (std::size_t j = 0; j < Px; ++j) {
        float* out_at = y + b * step + j * kLanes;
        Vec out[kParts];
        if (p0 == 0) {
          S::splat(out, a.bias[oc0 + b]);
        } else {
          S::load(out, out_at);
        }
#pragma GCC unroll 4
        for (std::size_t q = 0; q < kParts; ++q) {
          // ordered: panel sums fold onto the bias in ascending panel order.
          out[q] += acc[b][j][q];
        }
        if (p1 == patch) finish<V>(out, a.epilogue, oc0 + b);
        S::store(out_at, out);
      }
    }
  }
}

/// Every output channel at pixels (oy, ox0 .. ox0+Px), Ocb per block.
template <std::size_t Ocb, std::size_t Px, std::size_t V>
void conv_pixels(const LaneConvArgs& a, std::size_t oy, std::size_t ox0) {
  std::size_t oc = 0;
  for (; oc + Ocb <= a.out_c; oc += Ocb) conv_block<Ocb, Px, V>(a, oc, oy, ox0);
  for (; oc < a.out_c; ++oc) conv_block<1, Px, V>(a, oc, oy, ox0);
}

/// Conv2d over a padded lane chunk: Ocb output channels x Px adjacent
/// output pixels per register block, V floats per vector.
template <std::size_t Ocb, std::size_t Px, std::size_t V>
void lane_conv(const LaneConvArgs& a) {
  for (std::size_t oy = 0; oy < a.out_h; ++oy) {
    std::size_t ox = 0;
    for (; ox + Px <= a.out_w; ox += Px) conv_pixels<Ocb, Px, V>(a, oy, ox);
    for (; ox < a.out_w; ++ox) conv_pixels<Ocb, 1, V>(a, oy, ox);
  }
}

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

/// Channels [c0, c0 + Cb) of one output pixel of a depthwise convolution:
/// each output starts at its channel's bias, then adds every in-image tap
/// in ascending (ky, kx) order, then runs the epilogue.  The Cb channels'
/// sums are independent, so their additions overlap instead of waiting on
/// one another.
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
  for (std::size_t b = 0; b < Cb; ++b) {
    finish<V>(acc[b], a.epilogue, c0 + b);
    S::store(y + b * out_plane, acc[b]);
  }
}

/// DepthwiseConv2d over an unpadded lane chunk, Cb channels per register
/// block.
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
