// The lane convolutions' entry points: shape checks, Conv2d's zero-padded
// input copy and tap-offset table, the baseline instantiation of
// tensor/lane_tile.hpp and the dispatch to the variant gemm_variant() chose
// (the AVX2 one lives in tensor/gemm_avx2.cpp, the AVX-512 Conv2d in
// tensor/gemm_avx512.cpp).
#include <algorithm>
#include <stdexcept>

#include "tensor/gemm_variant.hpp"
#include "tensor/lane_tile.hpp"
#include "tensor/lanes.hpp"
#include "util/scratch.hpp"

namespace bprom::tensor {
namespace detail {

// Four-float vectors: SSE2 on x86-64, where a 16-lane feature takes four
// of the 16 vector registers, so a block of two output channels (eight
// accumulators) and the input feature stay in registers.
void conv_lanes_baseline(const LaneConvArgs& args) { lane_conv<2, 1, 4>(args); }
void depthwise_lanes_baseline(const LaneConvArgs& args) {
  lane_depthwise<2, 4>(args);
}

namespace {

bool has_shape(const Lanes& t, std::size_t c, std::size_t h, std::size_t w) {
  return t.shape().size() == 3 && t.dim(0) == c && t.dim(1) == h &&
         t.dim(2) == w;
}

/// The kernel arguments, after checking that x and y have the per-row
/// shapes the geometry implies: a mismatch would read or write past them.
LaneConvArgs lane_args(const Lanes& x, const ConvGeometry& g,
                       const float* weight, const float* bias,
                       std::size_t out_c, Lanes& y,
                       const LaneEpilogue& epilogue) {
  if (!has_shape(x, g.in_c, g.in_h, g.in_w) || g.kernel == 0 ||
      g.stride == 0 || g.in_h + 2 * g.pad < g.kernel ||
      g.in_w + 2 * g.pad < g.kernel ||
      !has_shape(y, out_c, g.out_h(), g.out_w()) || x.rows() != y.rows()) {
    throw std::invalid_argument(
        "lane convolution: input or output chunk does not match the "
        "layer's geometry");
  }
  return {.x = x.data(),
          .weight = weight,
          .bias = bias,
          .y = y.data(),
          .in_c = g.in_c,
          .in_h = g.in_h,
          .in_w = g.in_w,
          .out_c = out_c,
          .out_h = g.out_h(),
          .out_w = g.out_w(),
          .kernel = g.kernel,
          .stride = g.stride,
          .pad = g.pad,
          .taps = nullptr,
          .epilogue = epilogue};
}

/// x into `out` [in_c, in_h + 2 pad, in_w + 2 pad] with a zero border,
/// every lane copied; one pass that writes each float once.
void pad_chunk(const float* x, const ConvGeometry& g, float* out) {
  const std::size_t p = g.pad;
  const std::size_t wp = g.in_w + 2 * p;
  const std::size_t row = g.in_w * kLanes;
  const std::size_t border_rows = p * wp * kLanes;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    out = std::fill_n(out, border_rows, 0.0F);
    for (std::size_t iy = 0; iy < g.in_h; ++iy) {
      out = std::fill_n(out, p * kLanes, 0.0F);
      out = std::copy_n(x, row, out);
      out = std::fill_n(out, p * kLanes, 0.0F);
      x += row;
    }
    out = std::fill_n(out, border_rows, 0.0F);
  }
}

}  // namespace

void conv2d_lanes_with(const GemmVariant& variant, const Lanes& x,
                       const ConvGeometry& g, const float* weight,
                       const float* bias, std::size_t out_c, Lanes& y,
                       const LaneEpilogue& epilogue) {
  LaneConvArgs args = lane_args(x, g, weight, bias, out_c, y, epilogue);
  // Both buffers are used and dropped before this returns, and the kernel
  // never enters the pool, so the arena's lifetime rule holds.
  util::Scratch& scratch = util::Scratch::tls();
  if (g.pad != 0) {
    args.in_h = g.in_h + 2 * g.pad;
    args.in_w = g.in_w + 2 * g.pad;
    args.pad = 0;
    float* padded = scratch.buffer<float>(
        util::Scratch::kLanePadded, g.in_c * args.in_h * args.in_w * kLanes);
    pad_chunk(x.data(), g, padded);
    args.x = padded;
  }
  // Tap (c, ky, kx) of output pixel (oy, ox) reads the padded input at
  // pixel (oy * stride + ky, ox * stride + kx) of channel c.
  const std::size_t k = g.kernel;
  std::size_t* taps =
      scratch.buffer<std::size_t>(util::Scratch::kLaneTaps, g.patch_size());
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        taps[(c * k + ky) * k + kx] =
            ((c * args.in_h + ky) * args.in_w + kx) * kLanes;
      }
    }
  }
  args.taps = taps;
  variant.conv_lanes(args);
}

void depthwise_lanes_with(const GemmVariant& variant, const Lanes& x,
                          const ConvGeometry& g, const float* weight,
                          const float* bias, Lanes& y,
                          const LaneEpilogue& epilogue) {
  variant.depthwise_lanes(lane_args(x, g, weight, bias, g.in_c, y, epilogue));
}

}  // namespace detail

void conv2d_lanes(const Lanes& x, const ConvGeometry& g, const float* weight,
                  const float* bias, std::size_t out_c, Lanes& y,
                  const LaneEpilogue& epilogue) {
  detail::conv2d_lanes_with(detail::gemm_variant(), x, g, weight, bias, out_c,
                            y, epilogue);
}

void depthwise_lanes(const Lanes& x, const ConvGeometry& g,
                     const float* weight, const float* bias, Lanes& y,
                     const LaneEpilogue& epilogue) {
  detail::depthwise_lanes_with(detail::gemm_variant(), x, g, weight, bias, y,
                               epilogue);
}

}  // namespace bprom::tensor
